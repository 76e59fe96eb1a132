import numpy as np

from cornerforge import learn, segment as sg
from cornerforge.cli import EXIT_OK, main
from cornerforge.image import GrayImage, save_pgm
from cornerforge.trees import deserialize_tree


def test_eval_repeat_writes_curves_and_auc(tmp_path):
    data = tmp_path / "data"
    assert main(["make-dataset", "--synthetic", "48x40", "--frames", "3",
                 "--seed", "1", "--out", str(data)]) == EXIT_OK
    prefix = str(tmp_path / "r_")
    assert main(["eval-repeat", "--dataset", str(data), "--algo", "fast-ref",
                 "--algo", "harris", "--counts", "0:2000:1000",
                 "--out", prefix]) == EXIT_OK

    def rows(name):
        lines = (tmp_path / name).read_text().splitlines()
        return [line.split(",") for line in lines if not line.startswith("#")]

    auc = rows("r_auc.csv")
    assert auc[0] == ["detector", "A"]
    assert [r[0] for r in auc[1:]] == ["fast-ref-9", "harris"]
    assert all(0.0 <= float(r[1]) <= 2000.0 for r in auc[1:])
    curve = rows("r_fast-ref.csv")
    assert curve[0] == ["count", "repeatability"]
    assert [int(r[0]) for r in curve[1:]] == [0, 1000, 2000]


def test_learn_tree_exhaustive_shared_second(tmp_path):
    rng = np.random.default_rng(0)
    img = tmp_path / "train.pgm"
    pixels = rng.integers(0, 256, (32, 32)).astype(np.uint8)
    img.write_bytes(save_pgm(GrayImage(pixels)))
    out = tmp_path / "fast9.tree"
    assert main(["learn-tree", str(img), "--exhaustive", "--n", "9",
                 "--shared-second", "--out", str(out)]) == EXIT_OK
    tree, _ = deserialize_tree(out.read_bytes())
    codes = np.concatenate([np.flatnonzero(sg.label_all_configs(9))[::7],
                            rng.integers(0, sg.N_CONFIGS, 50_000)])
    got = learn.classify_states(tree, learn.states_from_codes(codes), 1)
    assert np.array_equal(got, sg.config_labels(codes, 9))
