import numpy as np
import pytest
from hypothesis import given, strategies as st

from _oracles import any_within
from cornerforge.repeatability import area_under_curve, match_within

EPSILONS = (0.5, 1.0, 1.5, 5.0)

# Quarter-pixel coordinates make exact-distance ties (d == epsilon) common.
quarter = st.integers(-40, 160).map(lambda k: k / 4)
anywhere = st.floats(-12.0, 42.0, allow_nan=False)
queries = st.lists(st.tuples(st.one_of(quarter, anywhere),
                             st.one_of(quarter, anywhere)), max_size=40)
targets = st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                   max_size=40)


class TestMatchWithin:
    @given(queries, targets, st.sampled_from(EPSILONS))
    def test_matches_oracle(self, qs, ts, eps):
        got = match_within(np.array(qs, dtype=np.float64),
                           np.array(ts, dtype=np.float64), eps)
        assert got.tolist() == any_within(qs, ts, eps)

    @pytest.mark.parametrize("eps", EPSILONS)
    def test_exactly_epsilon_away_matches(self, eps):
        offsets = [(eps, 0), (-eps, 0), (0, eps), (0, -eps)]
        if eps == 5.0:
            offsets += [(3, 4), (-3, 4), (4, -3), (-4, -3)]
        at = np.array([(20 + dx, 20 + dy) for dx, dy in offsets], dtype=float)
        target = np.array([[20, 20]])
        assert match_within(at, target, eps).all()
        beyond = at + 1e-9 * (at - 20)
        assert not match_within(beyond, target, eps).any()
        assert any_within(beyond.tolist(), [(20, 20)], eps) == [False] * len(at)

    @pytest.mark.parametrize("eps", EPSILONS + (2.3, 3.7))
    def test_near_ties(self, eps):
        # Queries a few units in the last place from distance eps, mostly
        # with |dy| near eps: there eps**2 - dy**2 cancels, and a run end
        # taken from sqrt alone is often one cell off.
        rng = np.random.default_rng(int(eps * 10))
        dy = eps * np.sqrt(1 - rng.uniform(0, 1, 4000) ** 4) * rng.choice(
            [-1, 1], 4000)
        dx = np.sqrt(eps * eps - dy * dy) * rng.choice([-1, 1], dy.size)
        qx = [50 + dx]
        for step in (np.inf, -np.inf):
            x = qx[0]
            for _ in range(4):
                x = np.nextafter(x, step)
                qx.append(x)
        qs = np.column_stack([np.concatenate(qx), np.tile(50 + dy, len(qx))])
        got = match_within(qs, np.array([[50, 50]]), eps)
        assert got.tolist() == any_within(qs.tolist(), [(50, 50)], eps)

    def test_queries_outside_target_box(self):
        qs = np.array([[-4.0, 0.0], [0.0, -5.5], [104.0, 53.0], [100.0, 51.0],
                       [-1e6, 3.0], [52.0, 1e9]])
        ts = np.array([[0, 0], [100, 50]])
        assert match_within(qs, ts, 5.0).tolist() == [
            True, False, True, True, False, False]

    def test_empty_inputs(self):
        none = np.zeros((0, 2))
        assert match_within(none, np.array([[1, 2]]), 5.0).shape == (0,)
        assert match_within(np.array([[1.0, 2.0]]), none, 5.0).tolist() == [False]

    @pytest.mark.parametrize("bad", [[[1.5, 2.0]], [[1.0, np.nan]],
                                     [[np.inf, 0.0]]])
    def test_non_integer_targets_raise(self, bad):
        with pytest.raises(ValueError, match="integer"):
            match_within(np.array([[1.0, 2.0]]), np.array(bad), 5.0)


class TestAreaUnderCurve:
    @pytest.mark.parametrize("curve, area", [
        ([(0, 1.0), (2000, 1.0)], 2000.0),               # the maximum
        ([(0, 0.0), (2000, 1.0)], 1000.0),               # one triangle
        ([(0, 0.0), (1000, 1.0), (2000, 1.0)], 1500.0),  # 500 + 1000
        ([(2000, 0.5), (0, 0.5)], 1000.0),               # points in any order
        ([(0, 0.0), (4000, 1.0)], 500.0),                # cut at 2000, R=0.5 there
    ])
    def test_hand_computed(self, curve, area):
        assert area_under_curve(curve) == pytest.approx(area, abs=1e-9)

    @pytest.mark.parametrize("curve", [
        [(0, 1.0), (1000, 1.0)],     # stops short of 2000
        [(250, 1.0), (2000, 1.0)],   # starts after 0
        [(0, 1.0)],                  # one point
    ])
    def test_must_cover_range(self, curve):
        with pytest.raises(ValueError, match="cover"):
            area_under_curve(curve)
