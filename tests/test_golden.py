"""Golden CLI outputs: `detect` and `eval-repeat` for all six detectors,
the trees that `learn-tree` and `distill` write, and the traces and best
trees of `anneal`, on small synthetic datasets, compared by sha256 (first
16 hex digits) of each output file without its '#' provenance lines.

The detection digests were recorded before keypoints became arrays, the
learning digests before `learn-tree` took its ring states from
`runtime.ternary_planes`, the 160x120 count-cut digests before the curve
matched each frame pair once for all counts, and the `anneal` digests
before its match counts settled sources by fixed disc masks; a refactor
that changes any of them changes what the CLI writes. The random baseline's
digests, and the combined AUC digests through its row alone, were
re-recorded when its counts became prefixes of one seeded permutation per
frame instead of a fresh sample per count. Regenerate them only for an
intended output change, and say why where the change is described.
"""

import hashlib
from unittest import mock

import numpy as np

from conftest import FIXTURES
from cornerforge import runtime as rt
from cornerforge.annealing import mutate, random_depth1_tree
from cornerforge.cli import ALGOS, EXIT_OK, EXIT_USAGE, main
from cornerforge.detectors import SixteenFoldDetector, TreeDetector
from cornerforge.segment import _arcs
from cornerforge.trees import (RING16, default_offsets_48, deserialize_tree,
                               serialize_tree)

GOLDEN = {
    "detect-fast-ref-t1": "2d86ce7a8e3a31f6",
    "detect-fast-ref-t1-n10": "e8189d105cf6bfdb",
    "detect-fast-ref-t35": "827077a780d81620",
    "detect-fast-ref-t35-n10": "e8189d105cf6bfdb",
    "eval-repeat-fast-ref-curve": "b8c0ffa55bf6fe4e",
    "eval-repeat-fast-ref-auc": "accff503015d8a1e",
    "detect-fast-tree-t1": "2d86ce7a8e3a31f6",
    "detect-fast-tree-t1-n10": "e8189d105cf6bfdb",
    "detect-fast-tree-t35": "827077a780d81620",
    "detect-fast-tree-t35-n10": "e8189d105cf6bfdb",
    "eval-repeat-fast-tree-curve": "b8c0ffa55bf6fe4e",
    "eval-repeat-fast-tree-auc": "685390d65a3bff04",
    "detect-faster-t1": "2d86ce7a8e3a31f6",
    "detect-faster-t1-n10": "e8189d105cf6bfdb",
    "detect-faster-t35": "827077a780d81620",
    "detect-faster-t35-n10": "e8189d105cf6bfdb",
    "eval-repeat-faster-curve": "b8c0ffa55bf6fe4e",
    "eval-repeat-faster-auc": "406739e6254a4d43",
    "detect-harris-t1": "4646bd15dcf30ec4",
    "detect-harris-t1-n10": "9da8e3df1ec853bd",
    "detect-harris-t35": "4646bd15dcf30ec4",
    "detect-harris-t35-n10": "9da8e3df1ec853bd",
    "eval-repeat-harris-curve": "15660e61a16b1cb4",
    "eval-repeat-harris-auc": "36d889875af032a2",
    "detect-shi-tomasi-t1": "1039ccea7804c7d8",
    "detect-shi-tomasi-t1-n10": "bc4a09e1f761e853",
    "detect-shi-tomasi-t35": "1039ccea7804c7d8",
    "detect-shi-tomasi-t35-n10": "bc4a09e1f761e853",
    "eval-repeat-shi-tomasi-curve": "723cea0b1cdc5226",
    "eval-repeat-shi-tomasi-auc": "edb69db4a175bfcf",
    "detect-random-t1-n10": "2c4c304387e0edce",
    "detect-random-t35-n10": "2c4c304387e0edce",
    "eval-repeat-random-curve": "0f5016f249b17066",
    "eval-repeat-random-auc": "7366659511cb4057",
}

GOLDEN_CUTS = {
    "cuts-fast-ref-curve": "340abe0f9190115a",
    "cuts-fast-tree-curve": "340abe0f9190115a",
    "cuts-faster-curve": "340abe0f9190115a",
    "cuts-harris-curve": "db458fca47b919b3",
    "cuts-shi-tomasi-curve": "96068dfd14cecde8",
    "cuts-random-curve": "d3345f8a6340d054",
    "cuts-auc": "5cc607dfb3ce7c62",
    "cuts-all-eps2.5-fast-ref-curve": "46db791e76d5de80",
    "cuts-all-eps2.5-fast-tree-curve": "46db791e76d5de80",
    "cuts-all-eps2.5-faster-curve": "46db791e76d5de80",
    "cuts-all-eps2.5-harris-curve": "f76825daf7cc16b8",
    "cuts-all-eps2.5-shi-tomasi-curve": "df349f30d3f53b4f",
    "cuts-all-eps2.5-random-curve": "6cd411e6e4523a64",
    "cuts-all-eps2.5-auc": "889f25e6e27c5994",
}

GOLDEN_LEARN = {
    "learn-tree-n9-t30": "aefd680704819892",
    "learn-tree-n9-t30-exhaustive-shared-second": "56e544a40edf67cc",
    "distill-t20": "3e58f9010ae12400",
}

# Recorded before ID3 reused the subtrees of repeated row-free slices.
GOLDEN_ROW_FREE = {
    "learn-tree-n12-exhaustive": "d28576784cdf1fe7",
    "learn-tree-n12-exhaustive-shared-second": "7cd4dcdf1fa21535",
    "learn-tree-n16-exhaustive": "a8a650e0689b4dc2",
    "learn-tree-n16-exhaustive-shared-second": "a8a650e0689b4dc2",
}


def digest(path) -> str:
    lines = path.read_text().splitlines(keepends=True)
    body = "".join(line for line in lines if not line.startswith("#"))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def golden_dataset(path):
    assert main(["make-dataset", "--synthetic", "64x48", "--frames", "3",
                 "--noise", "2", "--seed", "7", "--out", str(path)]) == EXIT_OK
    return path


def cli_digests(tmp_path, ring_tree, wide_tree) -> dict[str, str]:
    """Run the golden commands under ``tmp_path``; output name -> digest.
    ``ring_tree`` and ``wide_tree`` are (tree, offset table) pairs."""
    data = golden_dataset(tmp_path / "data")
    tree_args = {}
    for algo, (tree, table) in (("fast-tree", ring_tree), ("faster", wide_tree)):
        path = tmp_path / f"{algo}.tree"
        path.write_bytes(serialize_tree(tree, table))
        tree_args[algo] = ["--tree", str(path)]
    frame = str(data / "frame_000.pgm")
    out = {}
    for algo in ALGOS:
        extra = tree_args.get(algo, [])
        for t in (1, 35):
            for n in (None, 10):
                name = f"detect-{algo}-t{t}" + (f"-n{n}" if n else "")
                path = tmp_path / f"{name}.txt"
                args = ["detect", frame, "--algo", algo, "--t", str(t),
                        *extra, "--out", str(path)]
                if n is None and algo == "random":
                    assert main(args) == EXIT_USAGE  # random needs a count
                    continue
                assert main(args + (["--n-features", str(n)] if n else [])) == EXIT_OK
                out[name] = digest(path)
        prefix = tmp_path / f"repeat-{algo}_"
        assert main(["eval-repeat", "--dataset", str(data), "--algo", algo,
                     *extra, "--out", str(prefix)]) == EXIT_OK
        out[f"eval-repeat-{algo}-curve"] = digest(tmp_path / f"repeat-{algo}_{algo}.csv")
        out[f"eval-repeat-{algo}-auc"] = digest(tmp_path / f"repeat-{algo}_auc.csv")
    return out


def test_cli_outputs_match_golden_digests(tmp_path, fast9_tree, fast9_grid48):
    got = cli_digests(tmp_path, (fast9_tree, RING16), fast9_grid48)
    assert got == GOLDEN


def count_cut_digests(tmp_path, ring_tree, wide_tree) -> dict[str, str]:
    """`eval-repeat` of all six detectors in one run on a 160x120 dataset,
    where the 64x48 curves would saturate: the counts 0:2000:100 then cut
    every frame's ranking, so the curves depend on the count cuts. Once with
    the default pairs and epsilon, and once with every ordered pair at
    epsilon 2.5."""
    assert main(["make-dataset", "--synthetic", "160x120", "--frames", "4",
                 "--noise", "2", "--seed", "7",
                 "--out", str(tmp_path / "data")]) == EXIT_OK
    trees = {"fast-tree": ring_tree, "faster": wide_tree}
    specs = []
    for algo in ALGOS:
        if algo in trees:
            path = tmp_path / f"{algo}.tree"
            path.write_bytes(serialize_tree(*trees[algo]))
            algo = f"{algo}:tree={path}"
        specs += ["--algo", algo]
    out = {}
    for run, flags in (("", []), ("-all-eps2.5", ["--pairs", "all",
                                                  "--epsilon", "2.5"])):
        prefix = tmp_path / f"cuts{run}_"
        assert main(["eval-repeat", "--dataset", str(tmp_path / "data"),
                     *specs, "--counts", "0:2000:100", *flags,
                     "--out", str(prefix)]) == EXIT_OK
        for algo in ALGOS:
            path, = tmp_path.glob(f"cuts{run}_{algo}*.csv")
            out[f"cuts{run}-{algo}-curve"] = digest(path)
        out[f"cuts{run}-auc"] = digest(tmp_path / f"cuts{run}_auc.csv")
    return out


def test_count_cut_curves_match_golden_digests(tmp_path, fast9_tree,
                                               fast9_grid48):
    got = count_cut_digests(tmp_path, (fast9_tree, RING16), fast9_grid48)
    assert got == GOLDEN_CUTS


def mutated_tree(seed: int, mutations: int):
    """A random 48-offset tree: a depth-1 tree mutated ``mutations`` times."""
    rng = np.random.default_rng(seed)
    table = default_offsets_48()
    tree = random_depth1_tree(rng, table)
    for _ in range(mutations):
        tree = mutate(tree, rng, table)
    return tree, table


def learn_digests(tmp_path) -> dict[str, str]:
    """`learn-tree` from the golden frames, observed-only and exhaustive with
    a shared second test, and `distill` of a fixed mutated 48-offset tree."""
    data = golden_dataset(tmp_path / "data")
    frames = sorted(str(p) for p in data.glob("frame_*.pgm"))
    out = {}
    for name, flags in (("learn-tree-n9-t30", []),
                        ("learn-tree-n9-t30-exhaustive-shared-second",
                         ["--exhaustive", "--shared-second"])):
        path = tmp_path / f"{name}.tree"
        assert main(["learn-tree", *frames, "--n", "9", "--t", "30", *flags,
                     "--out", str(path)]) == EXIT_OK
        out[name] = digest(path)
    source = tmp_path / "mutated.tree"
    source.write_bytes(serialize_tree(*mutated_tree(10, 25)))
    path = tmp_path / "distill-t20.tree"
    assert main(["distill", "--tree", str(source), "--dataset", str(data),
                 "--t", "20", "--out", str(path)]) == EXIT_OK
    out["distill-t20"] = digest(path)
    return out


def test_learned_trees_match_golden_digests(tmp_path):
    assert learn_digests(tmp_path) == GOLDEN_LEARN


def row_free_digests(tmp_path) -> dict[str, str]:
    """`learn-tree --exhaustive` without images, where every subset ID3
    splits is a slice of the label tensor with no observed rows."""
    out = {}
    for n in (12, 16):
        for flags in ([], ["--shared-second"]):
            name = f"learn-tree-n{n}-exhaustive" + (
                "-shared-second" if flags else "")
            path = tmp_path / f"{name}.tree"
            assert main(["learn-tree", "--exhaustive", "--n", str(n), *flags,
                         "--out", str(path)]) == EXIT_OK
            out[name] = digest(path)
    return out


def test_row_free_trees_match_golden_digests(tmp_path):
    assert row_free_digests(tmp_path) == GOLDEN_ROW_FREE


GOLDEN_ANNEAL = {
    "anneal_best.tree": "19273700e6fff2aa",
    "anneal_run0.csv": "7b8801546e4a58f0",
    "anneal_run1.csv": "3cadd4e20899a735",
    "anneal_summary.csv": "bb2766182503c11c",
    "anneal-eps0.5_best.tree": "166fcf62d3183ebb",
    "anneal-eps0.5_run0.csv": "4c92568eb7c0b378",
    "anneal-eps0.5_summary.csv": "c3d171b4ee3ba849",
}


def anneal_digests(tmp_path) -> dict[str, str]:
    """`anneal --imax 30` on the golden frames: two seeded runs at the
    default epsilon and one at epsilon 0.5; each run's trace CSV, and each
    command's summary and best tree."""
    data = golden_dataset(tmp_path / "data")
    out = {}
    for name, flags in (("anneal", ["--runs", "2"]),
                        ("anneal-eps0.5", ["--runs", "1", "--epsilon", "0.5"])):
        prefix = tmp_path / f"{name}_"
        assert main(["anneal", "--dataset", str(data), "--imax", "30",
                     *flags, "--out", str(prefix)]) == EXIT_OK
        for path in sorted(tmp_path.glob(f"{name}_*")):
            out[path.name] = digest(path)
    return out


def test_anneal_outputs_match_golden_digests(tmp_path):
    assert anneal_digests(tmp_path) == GOLDEN_ANNEAL


# Recorded before the walk path took its score floor and ceiling from
# ``runtime.needs_field``'s plan.
GOLDEN_WALK = {
    "detect-faster-annealed-t1": "80d88c1a2811aa0c",
    "detect-faster-annealed-t35": "731a018e03d18871",
    "detect-fast-tree-distilled-t1": "f52cc444986c22df",
    "detect-fast-tree-distilled-t35": "02232daf340b063c",
}


def walked_trees(tmp_path):
    """(frame, trees) for two trees whose walks leave a pair uncovered, so
    they detect on ternary planes and score through ``score_positions``:
    the best tree of ``anneal_digests``' two runs (3 nodes, 32 pairs, none
    covered) as faster, and its `distill`ed form (128 nodes, 100 pairs, 5
    covered) as fast-tree. ``trees`` holds (algo, name, path, detector)."""
    data = golden_dataset(tmp_path / "data")
    annealed, distilled = tmp_path / "anneal_best.tree", tmp_path / "distilled.tree"
    assert main(["anneal", "--dataset", str(data), "--imax", "30", "--runs", "2",
                 "--out", str(tmp_path / "anneal_")]) == EXIT_OK
    assert main(["distill", "--tree", str(annealed), "--dataset", str(data),
                 "--out", str(distilled)]) == EXIT_OK
    trees = []
    for algo, name, path, cls in (
            ("faster", "annealed", annealed, SixteenFoldDetector),
            ("fast-tree", "distilled", distilled, TreeDetector)):
        det = cls(*deserialize_tree(path.read_bytes()))
        assert not det.walk.covered.all()
        trees.append((algo, name, path, det))
    return str(data / "frame_000.pgm"), trees


def walk_digests(tmp_path) -> dict[str, str]:
    """`detect` with the two ``walked_trees`` at t=1 and t=35."""
    frame, trees = walked_trees(tmp_path)
    out = {}
    for algo, name, path, _ in trees:
        for t in (1, 35):
            txt = tmp_path / f"{algo}-{name}-t{t}.txt"
            assert main(["detect", frame, "--algo", algo, "--tree", str(path),
                         "--t", str(t), "--out", str(txt)]) == EXIT_OK
            out[f"detect-{algo}-{name}-t{t}"] = digest(txt)
    return out


def test_walked_trees_match_golden_digests(tmp_path):
    assert walk_digests(tmp_path) == GOLDEN_WALK


# Recorded before ``PlaneWalk`` took ``covered`` and its scoring paths from
# one enumeration of each tree's leaf paths (``runtime.leaf_paths``).
GOLDEN_LEARNED = {
    "detect-faster-annealed_1500-t1": "2de5ea4679fb461b",
    "detect-faster-annealed_1500-t35": "c433d8068c401b33",
    "detect-fast-tree-annealed_1500_distilled-t1": "6fc43f5c0f2f172f",
    "detect-fast-tree-annealed_1500_distilled-t35": "7ab6bf056bd9041c",
}


def learned_tree_digests(tmp_path) -> dict[str, str]:
    """`detect` with the two committed learned trees (conftest's
    ``annealed_trees``) at t=1 and t=35 on the first frame of a generated
    160x120 set: 1,770 and 87 keypoints as faster, 1,776 and 85 distilled
    as fast-tree. Both walks leave pairs uncovered, so these pin the gate,
    the walk and the scoring paths on trees of 30 and 152 nodes."""
    data = tmp_path / "data"
    assert main(["make-dataset", "--synthetic", "160x120", "--frames", "2",
                 "--noise", "2", "--seed", "7", "--out", str(data)]) == EXIT_OK
    out = {}
    for algo, name in (("faster", "annealed_1500"),
                       ("fast-tree", "annealed_1500_distilled")):
        for t in (1, 35):
            txt = tmp_path / f"{name}-t{t}.txt"
            assert main(["detect", str(data / "frame_000.pgm"), "--algo", algo,
                         "--tree", str(FIXTURES / f"{name}.tree"), "--t", str(t),
                         "--out", str(txt)]) == EXIT_OK
            out[f"detect-{algo}-{name}-t{t}"] = digest(txt)
    return out


def test_learned_trees_detect_golden_digests(tmp_path):
    assert learned_tree_digests(tmp_path) == GOLDEN_LEARNED


def test_plans_replay_the_greedy_merges(tmp_path):
    # A pair set whose darker sides equal its brighter ones runs the greedy
    # once and replays its merges; the plan must be the one that running
    # the greedy for the darker sides as well gives. The arcs of FAST-n and
    # every walk's needs have equal sides; the covered and uncovered halves
    # of the walked trees' needs are checked whether or not theirs are.
    _, trees = walked_trees(tmp_path)
    keys = [(_arcs(n), len(RING16.offsets), True) for n in range(9, 17)]
    for _, _, _, det in trees:
        walk = det.walk
        pairs = [(tuple(b), tuple(d)) for b, d in walk.pairs]
        keys.append((tuple(pairs), len(walk.offsets), True))
        for sure in (True, False):
            keys.append((tuple(p for p, c in zip(pairs, walk.covered)
                               if c == sure), len(walk.offsets), False))
    replayed = 0
    for pairs, n, equal in keys:
        brighter = sorted({b for b, _ in pairs if b})
        darker = sorted({d for _, d in pairs if d})
        assert not equal or darker == brighter
        greedy = rt._shared_steps
        with mock.patch.object(rt, "_shared_steps", wraps=greedy) as spy:
            plan = rt._needs_plan.__wrapped__(pairs, n)
        assert spy.call_count == (1 if darker == brighter else 2)
        replayed += darker == brighter

        def again(steps, values, op, n):
            return greedy(darker, np.maximum, n, steps)

        with mock.patch.object(rt, "_replayed", again):
            assert rt._needs_plan.__wrapped__(pairs, n) == plan
    assert replayed >= 10


# sha256 of the committed learned trees; conftest's ``annealed_trees``
# records the commands that rebuild them.
ANNEALED_SHA256 = {
    "annealed_1500.tree":
        "5d952dd0b76750aa9a76dd34596538fb0e5e9187551356df55df49b7f08fa7bc",
    "annealed_1500_distilled.tree":
        "58f666f3d56b99169dd2aeec6746aa40e96ac50096c3eb1eb079b8f7bafd10be",
}


def test_annealed_fixtures_are_the_recorded_ones():
    assert {name: hashlib.sha256((FIXTURES / name).read_bytes()).hexdigest()
            for name in ANNEALED_SHA256} == ANNEALED_SHA256
