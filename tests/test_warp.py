import io
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra.numpy import arrays

from _oracles import project_points_masked
from cornerforge.cli import EXIT_DATA, EXIT_OK, main
from cornerforge.warp import (Homography, SingularHomographyError,
                              load_homography, project_points,
                              save_homography)

SIZE = (40, 30)


class TestHomography:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        for k in (0, 4, 8):
            m = np.eye(3)
            m.flat[k] = bad
            with pytest.raises(SingularHomographyError):
                Homography(m, SIZE)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_file_rejected(self, bad):
        with pytest.raises(SingularHomographyError):
            load_homography(io.StringIO(" ".join([bad] * 9)), SIZE)

    def test_singular_rejected(self):
        with pytest.raises(SingularHomographyError):
            Homography(np.zeros((3, 3)), SIZE)

    def test_file_round_trip_is_exact(self):
        m = np.array([[1.01, 0.02, 3.5], [-0.01, 0.99, -2.25], [1e-5, 2e-6, 1.0]])
        buf = io.StringIO()
        buf.write("# h\n")
        save_homography(buf, m)
        buf.seek(0)
        back = load_homography(buf, SIZE)
        assert np.array_equal(back.matrix, m) and back.target_size == SIZE

    def test_projection_and_inverse(self):
        shift = Homography(np.array([[1.0, 0, 2], [0, 1, -1], [0, 0, 1]]), SIZE)
        pts = np.array([[0.0, 1.0], [10.5, 20.0], [38.0, 5.0]])
        coords, valid = project_points(shift, pts)
        assert coords.tolist() == [[2, 0], [12.5, 19], [40, 4]]
        # (40, 4) lies past the last pixel centre x = 39
        assert valid.tolist() == [True, True, False]
        back, _ = project_points(
            Homography(np.linalg.inv(shift.matrix), SIZE), coords)
        assert np.allclose(back, pts)

    @staticmethod
    def check_bytes(warp, pts):
        coords, valid = project_points(warp, pts)
        want_coords, want_valid = project_points_masked(warp, pts)
        assert coords.dtype == want_coords.dtype and valid.dtype == bool
        assert coords.tobytes() == want_coords.tobytes()
        assert valid.tobytes() == want_valid.tobytes()
        return coords, valid

    def test_points_sent_to_infinity(self):
        # (x, y) -> (1/x, y/x): z = x, so x = 0 and |x| = 1e-12 are sent to
        # infinity, 2e-12 and 0.02 land outside, and x < 0 left of the frame
        swap = Homography(np.array([[0.0, 0, 1], [0, 1, 0], [1, 0, 0]]), SIZE)
        pts = np.array([[0.0, 5.0], [1e-12, 3.0], [-1e-12, 0.0],
                        [2e-12, 1.0], [-1.0, 2.0], [0.5, 7.0], [0.02, 1.0]])
        coords, valid = self.check_bytes(swap, pts)
        assert valid.tolist() == [False] * 5 + [True, False]
        assert coords[:3].tolist() == [[0, 0]] * 3
        assert coords[5].tolist() == [2, 14]

    def test_box_edges_are_inside(self):
        # the pixel-centre box is closed: x = w - 1 and y = h - 1 are valid
        w, h = SIZE
        same = Homography(np.eye(3), SIZE)
        pts = np.array([[0.0, 0.0], [w - 1, h - 1], [w - 1, 0.0], [0.0, h - 1],
                        [np.nextafter(w - 1, w), 3.0],
                        [2.0, np.nextafter(h - 1, h)],
                        [-5e-324, 2.0], [3.0, -5e-324]])
        _, valid = self.check_bytes(same, pts)
        assert valid.tolist() == [True] * 4 + [False] * 4

    @given(m=arrays(np.float64, (3, 3), elements=st.floats(-4, 4)),
           pts=arrays(np.float64, st.tuples(st.integers(0, 40),
                                            st.just(2)),
                      elements=st.floats(-60, 60)),
           zero=st.integers(0, 2))
    def test_equals_the_masked_formula(self, m, pts, zero):
        # a zero in the bottom row makes points with z = 0 easier to hit
        m[2, zero] = 0.0
        assume(abs(np.linalg.det(m)) > 1e-12)
        self.check_bytes(Homography(m, SIZE), pts)


def test_eval_repeat_rejects_nan_homography(tmp_path):
    data = tmp_path / "data"
    assert main(["make-dataset", "--synthetic", "48x40", "--frames", "3",
                 "--seed", "1", "--out", str(data)]) == EXIT_OK
    (data / "H_0_to_1.txt").write_text(" ".join(["nan"] * 9) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["eval-repeat", "--dataset", str(data), "--algo",
                     "fast-ref", "--counts", "0:2000:2000",
                     "--out", str(tmp_path / "r_")])
    assert code == EXIT_DATA
    assert not list(tmp_path.glob("r_*"))
