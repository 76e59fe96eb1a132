import io
import warnings

import numpy as np
import pytest

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
