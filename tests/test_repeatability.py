import pytest

from cornerforge.repeatability import area_under_curve


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
