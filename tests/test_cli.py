from xml.etree import ElementTree

import numpy as np
import pytest

from conftest import (classify_rows, read_keypoints, sixteenfold_field,
                      tree_positions)
from cornerforge import learn, segment as sg
from cornerforge.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main
from cornerforge.image import GrayImage, load_image, save_pgm
from cornerforge.trees import (Leaf, Node, default_offsets_48,
                               deserialize_tree, serialize_tree)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    data = tmp_path_factory.mktemp("cli") / "data"
    assert main(["make-dataset", "--synthetic", "48x40", "--frames", "3",
                 "--seed", "1", "--out", str(data)]) == EXIT_OK
    return data


def csv_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()
            if not line.startswith("#")]


def test_detect_writes_parseable_keypoints(small_dataset, tmp_path):
    frame = small_dataset / "frame_000.pgm"
    out = tmp_path / "kp.txt"
    assert main(["detect", str(frame), "--out", str(out)]) == EXIT_OK
    with open(out) as f:
        xs, ys, scores = read_keypoints(f).T
    img = load_image(frame)
    assert len(xs)
    assert ((xs >= 3) & (xs < img.width - 3) & (ys >= 3) & (ys < img.height - 3)
            & (scores >= 35) & (scores <= 255)).all()


@pytest.mark.parametrize("flags", [["--t", "0"], ["--t", "-3"], ["--n", "0"],
                                   ["--n", "17"],
                                   ["--algo", "harris", "--sigma", "0"],
                                   ["--algo", "shi-tomasi", "--sigma", "-1"],
                                   ["--n-features", "-1"],
                                   ["--algo", "random", "--n-features", "5",
                                    "--seed", "-1"],
                                   ["--algo", "harris", "--sigma", "inf"],
                                   ["--algo", "shi-tomasi", "--sigma", "nan"],
                                   # 3 sigma overflows to inf
                                   ["--algo", "harris", "--sigma", "1e308"],
                                   # a flag the detector ignores still parses
                                   ["--algo", "harris", "--n", "0"]],
                         ids=["t=0", "t=-3", "n=0", "n=17", "harris-sigma=0",
                              "shi-tomasi-sigma=-1", "n-features=-1",
                              "random-seed=-1", "harris-sigma=inf",
                              "shi-tomasi-sigma=nan", "harris-sigma=1e308",
                              "harris-n=0"])
def test_detect_rejects_out_of_range_parameters(tmp_path, flags):
    # usage errors come before the image is read: it does not exist
    out = tmp_path / "kp.txt"
    assert main(["detect", str(tmp_path / "missing.pgm"), *flags,
                 "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_detect_rejects_a_sample_over_maxval(tmp_path):
    img, out = tmp_path / "bad.pgm", tmp_path / "kp.txt"
    img.write_bytes(b"P5\n4 2\n15\n" + bytes([200, 0, 15, 255, 1, 2, 3, 4]))
    assert main(["detect", str(img), "--out", str(out)]) == EXIT_DATA
    assert not out.exists()


def test_detect_rejects_a_non_pgm_image(tmp_path, capsys):
    # PGM is the only image format: a PNG is a data error, not an i/o error
    img, out = tmp_path / "frame.png", tmp_path / "kp.txt"
    img.write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(32))
    assert main(["detect", str(img), "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "bad magic" in err and str(img) in err
    assert not out.exists()


def test_detect_rejects_a_tree_nested_too_deep(small_dataset, tmp_path,
                                              capsys):
    # 1500 nested nodes: a format error, not a recursion error
    deep = tmp_path / "deep.tree"
    deep.write_bytes(("FASTTREE v1 offsets=16\n" + "N 1\n" * 1500
                      + "L 1\n" + "L 0\n" * 3000).encode())
    assert main(["detect", str(small_dataset / "frame_000.pgm"), "--algo",
                 "fast-tree", "--tree", str(deep)]) == EXIT_DATA
    assert "nodes nest deeper than" in capsys.readouterr().err


def test_eval_repeat_names_the_frame_that_is_not_pgm(small_dataset, tmp_path,
                                                     capsys):
    data = tmp_path / "data"
    data.mkdir()
    for path in small_dataset.iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    (data / "frame_002.pgm").write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(32))
    assert main(["eval-repeat", "--dataset", str(data), "--algo", "fast-ref",
                 "--counts", "0:2000:1000", "--out",
                 str(tmp_path / "r_")]) == EXIT_DATA
    assert "frame_002.pgm" in capsys.readouterr().err
    assert not list(tmp_path.glob("r_*"))


@pytest.mark.parametrize("spec", ["fast-ref:t=0", "fast-ref:n=8",
                                  "harris:sigma=0", "random:seed=-1", "",
                                  "fast-ref:n=x", "random:seed=1.5",
                                  "harris:sigam=1", "fast-ref:t=3,t=4",
                                  "harris:sigma=inf", "shi-tomasi:sigma=nan",
                                  "fast-ref:tree=x.tree",
                                  "faster:tree=x.tree,n=9", "random:t=5",
                                  "bogus:n=9",
                                  "fast-tree:tree=missing.tree,t=x"])
def test_eval_repeat_rejects_out_of_range_spec(small_dataset, tmp_path, spec):
    # out of range, unparsable, unknown to the detector or repeated: a usage
    # error before the dataset is read, and no CSV is written
    assert main(["eval-repeat", "--dataset", str(small_dataset), "--algo", spec,
                 "--counts", "0:2000:1000", "--out",
                 str(tmp_path / "r_")]) == EXIT_USAGE
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("counts", ["0:2000:0", "0:100:-25", "0:100", "0,x",
                                    "0:1e3:25", "0,100,100", "100,0",
                                    "100:0:5", "", "-50,0,2000", "-50:2000:50",
                                    "0,1000", "0:1999:1", "25:2000:25"])
def test_eval_repeat_rejects_bad_counts(small_dataset, tmp_path, counts):
    # empty, negative, or not spanning [0, 2000]: rejected before any
    # detector runs or any CSV is written
    assert main(["eval-repeat", "--dataset", str(small_dataset), "--algo",
                 "fast-ref", f"--counts={counts}", "--out",
                 str(tmp_path / "r_")]) == EXIT_USAGE
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags", [["--repeats", "0"], ["--warmup", "-1"],
                                   ["--n-features", "-1"],
                                   ["--algo", "fast-ref:n=9,"],
                                   ["--algo", "fast-ref:,"],
                                   ["--algo", "fast-ref:n=x"],
                                   ["--algo", "random:seed=1.5"],
                                   ["--algo", "fast-ref", "--algo",
                                    "harris:sigam=1"],
                                   ["--algo", "random:sigma=1"],
                                   ["--algo", "harris:sigma=inf"]],
                         ids=["repeats=0", "warmup=-1", "n-features=-1",
                              "algos=fast-ref,", "algos=,", "algos=n=x",
                              "algos=seed=1.5", "algos=sigam=1",
                              "algos=random:sigma=1", "algos=sigma=inf"])
def test_bench_rejects_out_of_range_parameters(small_dataset, capsys, flags):
    # the header goes to stdout first when the parameters are valid
    assert main(["bench", str(small_dataset / "frame_000.pgm"),
                 *flags]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("algo", ["harris", "shi-tomasi"])
def test_detect_rejects_sigma_beyond_the_image(small_dataset, tmp_path, algo):
    # sigma 20 smooths over a radius of 60 pixels on a 48x40 frame: a data
    # error before any smoothing buffer is allocated
    out = tmp_path / "kp.txt"
    assert main(["detect", str(small_dataset / "frame_000.pgm"), "--algo",
                 algo, "--sigma", "20", "--out", str(out)]) == EXIT_DATA
    assert not out.exists()


def test_bench_writes_one_row(small_dataset, tmp_path):
    out = tmp_path / "bench.csv"
    frames = sorted(str(p) for p in small_dataset.glob("frame_*.pgm"))
    assert main(["bench", *frames, "--repeats", "1", "--warmup", "0",
                 "--out", str(out)]) == EXIT_OK
    rows = csv_rows(out)
    assert rows[0] == ["algo", "mpix_per_s", "median_seconds", "total_pixels",
                       "pal_field_ms", "pal_budget_pct"]
    assert len(rows) == 2 and rows[1][0] == "fast-ref-9"
    assert float(rows[1][1]) > 0 and int(rows[1][3]) == 3 * 48 * 40
    # a 768x288 PAL field at the measured rate, and its share of 20 ms;
    # within the rounding of median_seconds to the microsecond and of the
    # two columns to 3 and 2 decimals
    med, px = float(rows[1][2]), int(rows[1][3])
    field_ms = 1e3 * med * 768 * 288 / px
    slack = 1e3 * 0.5e-6 * 768 * 288 / px + 1e-3
    assert abs(float(rows[1][4]) - field_ms) <= slack
    assert abs(float(rows[1][5]) - 100 * field_ms / 20) <= 5 * slack


def test_bench_takes_one_spec_per_algo(small_dataset, tmp_path):
    # a spec's own commas separate its parameters, not detectors
    out = tmp_path / "bench.csv"
    assert main(["bench", str(small_dataset / "frame_000.pgm"), "--algo",
                 "fast-ref:n=9,t=20", "--algo", "harris", "--repeats", "1",
                 "--warmup", "0", "--out", str(out)]) == EXIT_OK
    assert [r[0] for r in csv_rows(out)[1:]] == ["fast-ref-9", "harris"]


def test_anneal_then_distill(small_dataset, tmp_path):
    prefix = str(tmp_path / "a_")
    assert main(["anneal", "--dataset", str(small_dataset), "--imax", "3",
                 "--runs", "1", "--out", prefix]) == EXIT_OK
    best = tmp_path / "a_best.tree"
    _, table = deserialize_tree(best.read_bytes())
    assert len(table) == 48
    run = csv_rows(tmp_path / "a_run0.csv")
    assert run[0] == ["iteration", "cost", "best_cost", "temperature"]
    assert [int(r[0]) for r in run[1:]] == [0, 1, 2, 3]
    out = tmp_path / "single.tree"
    assert main(["distill", "--tree", str(best), "--dataset", str(small_dataset),
                 "--out", str(out)]) == EXIT_OK
    single, table = deserialize_tree(out.read_bytes())
    assert len(table) == 48
    tree, _ = deserialize_tree(best.read_bytes())
    for frame in sorted(small_dataset.glob("frame_*.pgm")):
        img = load_image(frame)
        ys, xs = np.nonzero(sixteenfold_field(tree, img, 35, table))
        want = np.column_stack([xs, ys])
        assert np.array_equal(tree_positions(single, img, 35, table), want)


def test_fast_tree_runs_a_distilled_tree(small_dataset, tmp_path):
    # fast-tree takes a tree on any offset table, such as distill's 48
    source = tmp_path / "source.tree"
    source.write_bytes(serialize_tree(Node(20, b=Leaf(1), s=Leaf(0),
                                           d=Leaf(1)), default_offsets_48()))
    single = tmp_path / "single.tree"
    assert main(["distill", "--tree", str(source), "--dataset",
                 str(small_dataset), "--out", str(single)]) == EXIT_OK
    assert main(["eval-repeat", "--dataset", str(small_dataset), "--algo",
                 f"fast-tree:tree={single}", "--out",
                 str(tmp_path / "r_")]) == EXIT_OK
    assert csv_rows(tmp_path / "r_auc.csv")[1][0] == "fast-tree"


@pytest.mark.parametrize("flags", [["--imax", "0"], ["--t", "0"],
                                   ["--epsilon", "-1"], ["--epsilon", "nan"],
                                   ["--epsilon", "inf"], ["--wr", "nan"],
                                   ["--alpha", "inf"], ["--beta", "inf"],
                                   ["--runs", "0"], ["--jobs", "0"],
                                   ["--seed", "-1"]],
                         ids=["imax=0", "t=0", "epsilon=-1", "epsilon=nan",
                              "epsilon=inf", "wr=nan", "alpha=inf", "beta=inf",
                              "runs=0", "jobs=0", "seed=-1"])
def test_anneal_rejects_out_of_range_parameters(tmp_path, flags):
    # usage errors come before the dataset is read: it does not exist.
    # --jobs is a global flag, so it goes before the subcommand.
    before = flags if flags[0] == "--jobs" else []
    assert main([*before, "anneal", "--dataset", str(tmp_path / "missing"),
                 *flags[len(before):], "--out",
                 str(tmp_path / "a_")]) == EXIT_USAGE
    assert not list(tmp_path.iterdir())


def test_anneal_runs_on_after_the_temperature_underflows(small_dataset,
                                                        tmp_path):
    # alpha * I / I_max reaches 1e5, far past where exp underflows to 0
    prefix = str(tmp_path / "a_")
    assert main(["anneal", "--dataset", str(small_dataset), "--imax", "20",
                 "--alpha", "100000", "--out", prefix]) == EXIT_OK
    run = csv_rows(tmp_path / "a_run0.csv")
    assert len(run) == 22 and float(run[-1][3]) == 0


def test_eval_repeat_checks_every_spec_before_loading(tmp_path):
    # every spec is checked before the dataset is read, so no curve of an
    # earlier spec is written
    assert main(["eval-repeat", "--dataset", str(tmp_path / "missing"),
                 "--algo", "fast-ref", "--algo", "harris:sigma=0",
                 "--out", str(tmp_path / "r_")]) == EXIT_USAGE
    assert not list(tmp_path.iterdir())


def test_eval_repeat_checks_every_spec_before_reading_trees(small_dataset,
                                                          tmp_path):
    # the misspelt key of the second spec is found before the first spec's
    # tree file is read (it does not exist)
    assert main(["eval-repeat", "--dataset", str(small_dataset),
                 "--algo", f"fast-tree:tree={tmp_path / 'missing.tree'}",
                 "--algo", "harris:sigam=1", "--counts", "0:2000:1000",
                 "--out", str(tmp_path / "r_")]) == EXIT_USAGE
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("epsilon", ["0", "-1", "nan", "inf"])
def test_eval_repeat_rejects_bad_epsilon(tmp_path, epsilon):
    assert main(["eval-repeat", "--dataset", str(tmp_path / "missing"),
                 "--algo", "fast-ref", f"--epsilon={epsilon}",
                 "--out", str(tmp_path / "r_")]) == EXIT_USAGE
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [
    ["eval-repeat", "--algo", "fast-ref", "--out"],
    ["anneal", "--imax", "2", "--out"]], ids=["eval-repeat", "anneal"])
def test_one_frame_dataset_is_a_data_error(tmp_path, capsys, command):
    # one frame makes no pair: no curve or trace is written
    data = tmp_path / "data"
    assert main(["make-dataset", "--synthetic", "48x40", "--frames", "1",
                 "--out", str(data)]) == EXIT_OK
    out = tmp_path / "out"
    out.mkdir()
    assert main([command[0], "--dataset", str(data), *command[1:],
                 str(out / "r_")]) == EXIT_DATA
    assert "no frame pairs" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_eval_repeat_rejects_mismatched_frame_sizes(small_dataset, tmp_path,
                                                   capsys):
    data = tmp_path / "data"
    data.mkdir()
    for path in small_dataset.iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    (data / "frame_001.pgm").write_bytes(
        save_pgm(GrayImage(np.zeros((32, 40), dtype=np.uint8))))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["eval-repeat", "--dataset", str(data), "--algo", "fast-ref",
                 "--out", str(out / "r_")]) == EXIT_DATA
    assert "mismatched frame sizes" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_eval_repeat_random_on_small_frames(small_dataset, tmp_path):
    # 42 x 34 interior pixels, fewer than the curve's largest count: random
    # detects all of them there, as the other detectors detect all they find
    prefix = str(tmp_path / "r_")
    assert main(["eval-repeat", "--dataset", str(small_dataset), "--algo",
                 "random", "--out", prefix]) == EXIT_OK
    curve = csv_rows(tmp_path / "r_random.csv")[1:]
    assert [int(c) for c, _ in curve[-2:]] == [1975, 2000]
    assert curve[-1][1] == curve[-2][1]
    assert csv_rows(tmp_path / "r_auc.csv")[1][0] == "random"


def test_distill_rejects_zero_threshold(tmp_path):
    assert main(["distill", "--tree", str(tmp_path / "missing.tree"),
                 "--dataset", str(tmp_path / "missing"), "--t", "0",
                 "--out", str(tmp_path / "d.tree")]) == EXIT_USAGE
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", [
    ["detect", "{image}", "--t", "256"],
    ["detect", "{image}", "--algo", "fast-tree", "--tree", "{tree}", "--t",
     "300"],
    ["bench", "{image}", "--algo", "faster:t=256", "--tree", "{tree}"],
    ["eval-repeat", "--dataset", "{data}", "--algo", "fast-ref:t=256"],
    ["learn-tree", "--exhaustive", "--t", "256"],
    ["anneal", "--dataset", "{data}", "--t", "256"],
    ["distill", "--tree", "{tree}", "--dataset", "{data}", "--t", "256"]],
    ids=["detect", "detect-fast-tree", "bench", "eval-repeat", "learn-tree",
         "anneal", "distill"])
def test_threshold_above_255_is_a_usage_error(small_dataset, tmp_path, capsys,
                                              command):
    # a threshold is a difference of 8-bit values; a tree that always fires
    # used to score every position t - 1 (299 at --t 300) and exit 0
    tree = tmp_path / "always.tree"
    tree.write_bytes(b"FASTTREE v1 offsets=16\nL 1\n")
    out = tmp_path / "out"
    out.mkdir()
    paths = {"image": small_dataset / "frame_000.pgm", "tree": tree,
             "data": small_dataset}
    argv = [arg.format(**paths) for arg in command]
    assert main([*argv, "--out", str(out / "x")]) == EXIT_USAGE
    assert not list(out.iterdir())
    assert capsys.readouterr().out == ""


def test_make_dataset_rejects_zero_frames(tmp_path, capsys):
    # every flag is checked before the base image is read or anything is
    # written
    missing = ["--base", str(tmp_path / "missing.pgm")]
    for flags in ([*missing, "--frames", "0"], [*missing, "--noise", "-1"],
                  ["--noise", "nan"], ["--noise", "inf"], ["--warp-mag", "-5"],
                  ["--warp-mag", "-1"], ["--warp-mag", "nan"],
                  ["--warp-mag", "inf"], ["--synthetic", "abc"],
                  ["--synthetic", "64X48"], ["--synthetic", "64x48x3"],
                  ["--synthetic", "0x48"]):
        assert main(["make-dataset", *flags, "--out",
                     str(tmp_path / "data")]) == EXIT_USAGE, flags
        assert not list(tmp_path.iterdir())
    capsys.readouterr()
    for size in ("8x8", "10x48", "48x10"):
        assert main(["make-dataset", "--synthetic", size, "--out",
                     str(tmp_path / "data")]) == EXIT_USAGE, size
        assert "11x11" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


def test_make_dataset_rejects_a_negative_seed_before_reading_the_base(
        small_dataset, tmp_path, capsys):
    assert main(["make-dataset", "--base",
                 str(small_dataset / "frame_000.pgm"), "--seed", "-1",
                 "--out", str(tmp_path / "data")]) == EXIT_USAGE
    assert "--seed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_make_dataset_draws_the_smallest_synthetic_image(tmp_path):
    assert main(["make-dataset", "--synthetic", "11x11", "--frames", "2",
                 "--out", str(tmp_path / "data")]) == EXIT_OK
    assert load_image(tmp_path / "data" / "frame_001.pgm").shape == (11, 11)


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


def test_eval_repeat_svg_parses_with_dashes_in_paths(small_dataset, tmp_path):
    # "--" may not appear in an XML comment, and these paths hold it
    out = tmp_path / "a--b"
    out.mkdir()
    svg = out / "curves.svg"
    assert main(["eval-repeat", "--dataset", str(small_dataset), "--algo",
                 "fast-ref", "--algo", "harris", "--counts", "0:2000:1000",
                 "--out", str(out / "r_"), "--svg", str(svg)]) == EXIT_OK
    root = ElementTree.parse(svg).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    assert len(root.findall(f"{ns}polyline")) == 2
    header = [line[2:] for line in (out / "r_auc.csv").read_text().splitlines()
              if line.startswith("# ")]
    assert len(header) == 3 and str(svg) in header[2]
    assert root.find(f"{ns}desc").text.splitlines() == header


@pytest.mark.parametrize("flags", [["--t", "0"], ["--n", "8"], ["--n", "17"],
                                   ["--weight-scale", "-1"],
                                   ["--weight-scale", "0"],
                                   ["--exhaustive", "--low-weight", "-1"],
                                   ["--exhaustive", "--low-weight", "0"],
                                   # total weights from 2^53 up are not exact
                                   ["--exhaustive", "--low-weight", "209242401"],
                                   ["--exhaustive", "--low-weight", str(2**62)],
                                   ["--exhaustive", "--low-weight", str(2**63)],
                                   ["--weight-scale", str(2**53)],
                                   ["--exhaustive", "--weight-scale", str(2**63)]],
                         ids=["t=0", "n=8", "n=17", "weight-scale=-1",
                              "weight-scale=0", "low-weight=-1",
                              "low-weight=0", "low-weight=2^53/3^16",
                              "low-weight=2^62", "low-weight=2^63",
                              "weight-scale=2^53", "weight-scale=2^63"])
def test_learn_tree_rejects_out_of_range_parameters(tmp_path, flags):
    # usage errors come before any image is read: the image does not exist
    out = tmp_path / "t.tree"
    assert main(["learn-tree", str(tmp_path / "missing.pgm"), *flags,
                 "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_learn_tree_total_weight_from_images_is_a_data_error(tmp_path):
    # 26 x 26 interior pixels at a scale of 2^44 weigh more than 2^53
    img = tmp_path / "train.pgm"
    img.write_bytes(save_pgm(GrayImage(np.zeros((32, 32), np.uint8))))
    out = tmp_path / "t.tree"
    assert main(["learn-tree", str(img), "--weight-scale", str(2**44),
                 "--out", str(out)]) == EXIT_DATA
    assert not out.exists()


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
    got = classify_rows(tree, learn.states_from_codes(codes))
    assert np.array_equal(got, sg.config_labels(codes, 9))


def test_learn_tree_exhaustive_zero_weight_scale(tmp_path):
    # observed configurations weigh 0, and the exhaustive padding alone
    # defines the segment test
    img = tmp_path / "train.pgm"
    pixels = np.random.default_rng(1).integers(0, 256, (32, 32))
    img.write_bytes(save_pgm(GrayImage(pixels.astype(np.uint8))))
    out = tmp_path / "fast9.tree"
    assert main(["learn-tree", str(img), "--exhaustive", "--weight-scale", "0",
                 "--n", "9", "--out", str(out)]) == EXIT_OK
    tree, _ = deserialize_tree(out.read_bytes())
    codes = np.random.default_rng(2).integers(0, sg.N_CONFIGS, 50_000)
    got = classify_rows(tree, learn.states_from_codes(codes))
    assert np.array_equal(got, sg.config_labels(codes, 9))
