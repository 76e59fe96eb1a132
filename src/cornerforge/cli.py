"""Command-line surface: detection, tree learning, evaluation, annealing,
benchmarking, and synthetic dataset generation.

Every text output starts with a provenance header (tool version, full
command configuration, seed) in the format's native comment syntax, or in
an SVG's ``<desc>``. Exit codes: 0 success, 1 usage, 2 I/O, 3 data
validation.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import re
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from . import __version__
from .annealing import CostWeights, distill, multi_run
from .datasets import make_dataset, synthetic_base_image
from .detectors import (FastRefDetector, HarrisDetector, RandomDetector,
                        ShiTomasiDetector, SixteenFoldDetector, TreeDetector)
from .image import PgmError, load_image, save_pgm
from .learn import (MAX_TOTAL_WEIGHT, InconsistentLabelsError,
                    augment_exhaustive, build_tree, empty_training_set,
                    extract_training_data, force_shared_second_test)
from .repeatability import (CURVE_MAX_COUNT, MissingWarpError,
                            area_under_curve, check_epsilon, make_pairs,
                            repeatability_curve)
from .runtime import write_keypoints
from .segment import N_CONFIGS
from .trees import (RING16, TreeFormatError, default_offsets_48,
                    deserialize_tree, serialize_tree)
from .warp import SingularHomographyError, load_homography, save_homography

# The paper's speed unit: one 768x288 PAL field, 20 ms of video
PAL_FIELD_PIXELS = 768 * 288
PAL_FIELD_MS = 20.0

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DATA = 3

# The keys a detector spec such as "fast-ref:n=9,t=20" may set, per detector.
_SPEC_KEYS = {"fast-ref": ("n", "t"), "fast-tree": ("tree", "t"),
             "faster": ("tree", "t"), "harris": ("sigma",),
             "shi-tomasi": ("sigma",), "random": ("seed",)}
ALGOS = tuple(_SPEC_KEYS)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit(2); we use 1
        raise UsageError(message)


def _provenance(command: str, args: argparse.Namespace) -> list[str]:
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return [f"cornerforge {__version__}",
            f"command: {command}",
            f"config: {json.dumps(cfg, default=str, sort_keys=True)}"]


@contextmanager
def _output(path, header):
    """The text file ``path`` ("-" is stdout) opened for writing, after its
    '#'-prefixed provenance ``header`` lines; every text output but the SVG
    starts here."""
    out = sys.stdout if path == "-" else open(path, "w")
    try:
        for line in header:
            out.write(f"# {line}\n")
        yield out
    finally:
        if out is not sys.stdout:
            out.close()


def _expand_images(paths) -> list[str]:
    out = []
    for p in paths:
        if any(ch in p for ch in "*?["):
            hits = sorted(glob.glob(p))
            if not hits:
                raise FileNotFoundError(f"glob {p!r} matched nothing")
            out.extend(hits)
        else:
            out.append(p)
    return out


def _load_tree(path):
    with open(path, "rb") as f:
        return deserialize_tree(f.read())


def _threshold_ok(t: int) -> bool:
    """A threshold is an intensity difference of 8-bit pixels: 1..255."""
    return 1 <= t <= 255


# Each numeric detector parameter: its default, its type, the values it takes.
_PARAMS = {"n": (9, int, lambda v: 9 <= v <= 16),
           "t": (1, int, _threshold_ok),
           "sigma": (2.5, float, lambda v: math.isfinite(v) and v > 0),
           "seed": (0, int, lambda v: v >= 0)}


def _detector_params(args, spec: str | None = None) -> tuple[str, dict]:
    """The detector name and its checked parameters, from CLI flags or from
    a spec string like "fast-ref:n=9". Reads no file.

    A spec may set only its detector's keys (``_SPEC_KEYS``), each at most
    once, to a value that parses; anything else is a usage error."""
    given = {}
    if spec is not None:
        name, _, rest = spec.partition(":")
        if name not in _SPEC_KEYS:
            raise UsageError(f"unknown algo {name!r}; choose from "
                             f"{', '.join(ALGOS)}")
        for item in rest.split(",") if rest else ():
            key, _, val = item.partition("=")
            if not val:
                raise UsageError(f"bad detector parameter {item!r} in {spec!r}")
            if key not in _SPEC_KEYS[name]:
                raise UsageError(f"{name} takes no parameter {key!r} in "
                                 f"{spec!r}; its keys are "
                                 f"{', '.join(_SPEC_KEYS[name])}")
            if key in given:
                raise UsageError(f"parameter {key!r} repeated in {spec!r}")
            given[key] = val
    else:
        name = args.algo
    params = {}
    for key in _SPEC_KEYS[name]:
        if key == "tree":
            params[key] = given.get(key) or args.tree
            if not params[key]:
                raise UsageError(f"{name} needs --tree (or tree= in the spec)")
            continue
        default, cast, valid = _PARAMS[key]
        if key in given:
            try:
                val = cast(given[key])
            except ValueError:
                raise UsageError(f"detector parameter {key}={given[key]} is "
                                 f"not a valid {cast.__name__}") from None
        else:
            val = getattr(args, key, None)
            val = default if val is None else val
        if not valid(val):
            raise UsageError(f"detector parameter {key}={val} is out of range")
        params[key] = val
    return name, params


def _build_detector(name: str, params: dict):
    """The detector that ``_detector_params`` checked; a tree detector reads
    its tree file here."""
    if name == "fast-ref":
        return FastRefDetector(n=params["n"], t_min=params["t"])
    tree_detectors = {d.name: d for d in (TreeDetector, SixteenFoldDetector)}
    if name in tree_detectors:
        tree, table = _load_tree(params["tree"])
        return tree_detectors[name](tree, table, t_min=params["t"])
    if name == "harris":
        return HarrisDetector(sigma=params["sigma"])
    if name == "shi-tomasi":
        return ShiTomasiDetector(sigma=params["sigma"])
    return RandomDetector(seed=params["seed"])


def cmd_detect(args) -> int:
    if args.n_features is not None and args.n_features < 0:
        raise UsageError("--n-features must be >= 0")
    detector = _build_detector(*_detector_params(args))
    if args.n_features is None and isinstance(detector, RandomDetector):
        raise UsageError("random detector needs --n-features")
    img = load_image(args.image)
    kps = (detector.all_keypoints(img) if args.n_features is None
           else detector.detect(img, args.n_features))
    with _output(args.out, _provenance("detect", args)) as out:
        write_keypoints(out, kps)
    return EXIT_OK


def cmd_learn_tree(args) -> int:
    if not _threshold_ok(args.t) or not 9 <= args.n <= 16:
        raise UsageError("learn-tree needs --t in 1..255 and --n in 9..16")
    if args.weight_scale < 0 or args.low_weight < 1:
        raise UsageError("learn-tree needs --weight-scale >= 0 and "
                         "--low-weight >= 1")
    # total weights from 2^53 up lose exactness in the ID3 count tables
    if (args.weight_scale >= MAX_TOTAL_WEIGHT
            or args.low_weight * N_CONFIGS >= MAX_TOTAL_WEIGHT):
        raise UsageError("learn-tree needs --weight-scale and "
                         "3^16 x --low-weight below 2^53")
    if args.weight_scale == 0 and not args.exhaustive:
        # every observed configuration would weigh 0: a tree that never fires
        raise UsageError("learn-tree --weight-scale 0 needs --exhaustive")
    images = [load_image(p) for p in _expand_images(args.images)]
    if images:
        ts = extract_training_data(images, args.n, args.t,
                                   weight_scale=args.weight_scale)
    elif args.exhaustive:
        ts = empty_training_set()
    else:
        raise UsageError("need training images or --exhaustive")
    if args.exhaustive:
        ts = augment_exhaustive(ts, args.n, low_weight=args.low_weight)
    tree = build_tree(ts)
    if args.shared_second:
        tree = force_shared_second_test(tree, ts)
    Path(args.out).write_bytes(serialize_tree(tree, RING16))
    return EXIT_OK


def _parse_counts(spec: str) -> list[int]:
    """Feature counts from "start:stop:step" (stop included) or "a,b,...":
    integers in strictly ascending order, from 0 to at least
    ``CURVE_MAX_COUNT``, the span the area under the curve covers."""
    ranged = ":" in spec
    try:
        counts = [int(v) for v in spec.split(":" if ranged else ",")]
    except ValueError:
        raise UsageError(f"counts spec {spec!r} holds a non-integer") from None
    if ranged:
        if len(counts) != 3:
            raise UsageError(f"counts spec {spec!r} must be start:stop:step")
        start, stop, step = counts
        if step < 1:
            raise UsageError(f"counts spec {spec!r} needs a step >= 1")
        counts = list(range(start, stop + 1, step))
    if any(b <= a for a, b in zip(counts, counts[1:])):
        raise UsageError(f"counts in {spec!r} must be strictly ascending")
    if not counts or counts[0] != 0 or counts[-1] < CURVE_MAX_COUNT:
        raise UsageError(f"counts in {spec!r} must run from 0 to at least "
                         f"{CURVE_MAX_COUNT}")
    return counts


def _load_dataset(dirpath):
    d = Path(dirpath)
    frame_paths = sorted(d.glob("frame_*.pgm"))
    if not frame_paths:
        raise FileNotFoundError(f"{dirpath}: no frame_*.pgm files")
    frames = [load_image(p) for p in frame_paths]
    return d, frames


def _load_warps(d: Path, frames, pairs):
    warps = {}
    for i, j in pairs:
        path = d / f"H_{i}_to_{j}.txt"
        if not path.exists():
            raise MissingWarpError(f"missing homography file for pair "
                                   f"({i}, {j}): {path}")
        with open(path) as f:
            warps[(i, j)] = load_homography(
                f, (frames[j].width, frames[j].height))
    return warps


def _usage_checked(check, *args, **kwargs):
    """Run a library argument check; its ``ValueError`` is a usage error."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def cmd_eval_repeat(args) -> int:
    counts = _parse_counts(args.counts)
    _usage_checked(check_epsilon, args.epsilon)
    # every spec is checked before any tree file or the dataset is read
    checked = [(spec, _detector_params(args, spec)) for spec in args.algo]
    detectors = [(spec, _build_detector(*params)) for spec, params in checked]
    d, frames = _load_dataset(args.dataset)
    sizes = {(f.width, f.height) for f in frames}
    if len(sizes) != 1:
        raise ValueError(f"mismatched frame sizes in {args.dataset}: {sorted(sizes)}")
    pairs = make_pairs(len(frames), args.pairs)
    warps = _load_warps(d, frames, pairs)
    header = _provenance("eval-repeat", args)
    prefix = args.out
    auc_rows = []
    curves = []
    for spec, detector in detectors:
        curve = repeatability_curve(frames, warps, detector, counts,
                                    args.epsilon, pairs)
        label = spec.replace(":", "_").replace("/", "_").replace(",", "_")
        with _output(f"{prefix}{label}.csv", header) as f:
            f.write("count,repeatability\n")
            for count, r in curve:
                f.write(f"{count},{r:.6f}\n")
        auc_rows.append((detector.name, spec, area_under_curve(curve)))
        curves.append((detector.name, curve))
    with _output(f"{prefix}auc.csv", header) as f:
        f.write("detector,A\n")
        for name, spec, auc in auc_rows:
            f.write(f"{name},{auc:.2f}\n")
    if args.svg:
        write_svg_curves(args.svg, curves, header)
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.repeats < 1 or args.warmup < 0 or args.n_features < 0:
        raise UsageError("bench needs --repeats >= 1, --warmup >= 0 and "
                         "--n-features >= 0")
    checked = [_detector_params(args, spec)
               for spec in args.algo or ["fast-ref:n=9"]]
    detectors = [_build_detector(*params) for params in checked]
    images = [load_image(p) for p in _expand_images(args.images)]
    with _output(args.out, _provenance("bench", args)) as out:
        out.write("algo,mpix_per_s,median_seconds,total_pixels,pal_field_ms,"
                  "pal_budget_pct\n")
        if not images:
            return EXIT_OK
        total_px = sum(im.width * im.height for im in images)
        for detector in detectors:
            times = []
            for rep in range(args.warmup + args.repeats):
                t0 = time.perf_counter()
                for im in images:
                    detector.detect(im, args.n_features)
                dt = time.perf_counter() - t0
                if rep >= args.warmup:
                    times.append(dt)
            med = float(np.median(times))
            field_ms = 1e3 * med * PAL_FIELD_PIXELS / total_px
            out.write(f"{detector.name},{total_px / med / 1e6:.3f},{med:.6f},"
                      f"{total_px},{field_ms:.3f},"
                      f"{100 * field_ms / PAL_FIELD_MS:.2f}\n")
    return EXIT_OK


def cmd_make_dataset(args) -> int:
    if args.frames < 1:
        raise UsageError("make-dataset needs --frames >= 1")
    if not all(math.isfinite(v) and v >= 0 for v in (args.noise, args.warp_mag)):
        raise UsageError("make-dataset needs finite --noise >= 0 and "
                         "--warp-mag >= 0")
    if args.base:
        base = load_image(args.base)
    else:
        size = re.fullmatch(r"(\d+)x(\d+)", args.synthetic)
        if not size:
            raise UsageError(f"--synthetic {args.synthetic!r} is not WxH")
        base = _usage_checked(synthetic_base_image, int(size[1]), int(size[2]),
                              args.seed)
    frames, warps = make_dataset(base, args.frames, args.warp_mag,
                                 args.noise, args.seed)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    header = _provenance("make-dataset", args)
    for k, frame in enumerate(frames):
        (outdir / f"frame_{k:03d}.pgm").write_bytes(
            save_pgm(frame, comment=header[0] + " " + header[2]))
    for (i, j), warp in sorted(warps.items()):
        with _output(outdir / f"H_{i}_to_{j}.txt", header) as f:
            save_homography(f, warp.matrix)
    with _output(outdir / "dataset.txt", header) as f:
        f.write(f"frames {len(frames)}\n")
        f.write("pair_policy adjacent2\n")
        for k in range(len(frames)):
            f.write(f"frame frame_{k:03d}.pgm\n")
    return EXIT_OK


def cmd_anneal(args) -> int:
    weights = _usage_checked(CostWeights, w_r=args.wr, w_n=args.wn,
                             w_s=args.ws, alpha=args.alpha, beta=args.beta,
                             t=args.t, i_max=args.imax, epsilon=args.epsilon)
    if not _threshold_ok(args.t) or args.runs < 1 or args.jobs < 1:
        raise UsageError("anneal needs --t in 1..255, --runs >= 1 and "
                         "--jobs >= 1")
    d, frames = _load_dataset(args.dataset)
    pairs = make_pairs(len(frames), "adjacent2")
    warps = _load_warps(d, frames, pairs)
    best, results = multi_run(frames, warps, weights,
                              range(args.seed, args.seed + args.runs),
                              jobs=args.jobs)
    prefix = args.out
    header = _provenance("anneal", args)
    Path(f"{prefix}best.tree").write_bytes(
        serialize_tree(best.best_tree, default_offsets_48()))
    for res in results:
        with _output(f"{prefix}run{res.seed}.csv", header) as f:
            f.write("iteration,cost,best_cost,temperature\n")
            for row in res.trace:
                f.write(f"{int(row[0])},{row[1]:.6g},{row[2]:.6g},{row[3]:.6g}\n")
    with _output(f"{prefix}summary.csv", header) as f:
        f.write("seed,best_cost,initial_cost\n")
        for res in results:
            f.write(f"{res.seed},{res.best_cost:.6g},{res.trace[0, 1]:.6g}\n")
    return EXIT_OK


def cmd_distill(args) -> int:
    if not _threshold_ok(args.t):
        raise UsageError("distill needs --t in 1..255")
    tree, table = _load_tree(args.tree)
    if len(table) != 48:
        raise UsageError(f"{args.tree}: distill expects a 48-offset tree")
    _, frames = _load_dataset(args.dataset)
    single = distill(tree, frames, t=args.t, table=table)
    Path(args.out).write_bytes(serialize_tree(single, table))
    return EXIT_OK


def write_svg_curves(path, curves, header_lines) -> None:
    """Self-contained SVG line plot of repeatability-vs-count curves. The
    provenance ``header_lines`` go, escaped, into its ``<desc>``: an XML
    comment may not hold "--", which a path can."""
    width, height, pad = 640, 400, 45
    xmax = max((c for name, curve in curves for c, _ in curve), default=1) or 1
    palette = ("#c33", "#36c", "#393", "#a3a", "#973", "#333")
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">',
             "<desc>" + escape("\n".join(header_lines)) + "</desc>"]
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    parts.append(f'<line x1="{pad}" y1="{height - pad}" x2="{width - 10}" '
                 f'y2="{height - pad}" stroke="black"/>')
    parts.append(f'<line x1="{pad}" y1="{height - pad}" x2="{pad}" y2="10" '
                 f'stroke="black"/>')

    def sx(c):
        return pad + (width - pad - 10) * c / xmax

    def sy(r):
        return (height - pad) - (height - pad - 10) * r

    for k, (name, curve) in enumerate(curves):
        color = palette[k % len(palette)]
        pts = " ".join(f"{sx(c):.1f},{sy(r):.1f}" for c, r in curve)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - 150}" y="{20 + 16 * k}" '
                     f'fill="{color}" font-size="12">{name}</text>')
    parts.append(f'<text x="{width // 2}" y="{height - 12}" font-size="12">'
                 f'features per frame</text>')
    parts.append(f'<text x="12" y="{height // 2}" font-size="12" '
                 f'transform="rotate(-90 12 {height // 2})">repeatability</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="cornerforge", description=__doc__)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker cap; 1 defines canonical output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("detect", help="detect corners in one image")
    p.add_argument("image")
    p.add_argument("--algo", default="fast-ref", choices=ALGOS)
    p.add_argument("--n", type=int, default=9, help="segment arc length")
    p.add_argument("--t", type=int, default=35, help="detection threshold")
    p.add_argument("--tree", help="tree file for fast-tree/faster")
    p.add_argument("--sigma", type=float, default=2.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-features", type=int, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("learn-tree", help="compile the segment test via ID3")
    p.add_argument("images", nargs="*")
    p.add_argument("--n", type=int, default=9)
    p.add_argument("--t", type=int, default=35)
    p.add_argument("--exhaustive", action="store_true",
                   help="cover all 3^16 ring configurations")
    p.add_argument("--low-weight", type=int, default=1)
    p.add_argument("--weight-scale", type=int, default=256)
    p.add_argument("--shared-second", action="store_true",
                   help="force one shared second-level test")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_learn_tree)

    p = sub.add_parser("eval-repeat", help="repeatability curves and AUC")
    p.add_argument("--dataset", required=True)
    p.add_argument("--algo", action="append", required=True,
                   help="detector spec, e.g. fast-ref:n=9 (repeatable)")
    p.add_argument("--counts", default="0:2000:25")
    p.add_argument("--epsilon", type=float, default=5.0)
    p.add_argument("--pairs", default="adjacent2", choices=("adjacent2", "all"))
    p.add_argument("--tree")
    p.add_argument("--out", default="repeat_")
    p.add_argument("--svg")
    p.set_defaults(func=cmd_eval_repeat)

    p = sub.add_parser("bench", help="throughput in megapixels per second and "
                                   "milliseconds per PAL field")
    p.add_argument("images", nargs="*")
    p.add_argument("--algo", action="append",
                   help="detector spec, e.g. fast-ref:n=9 (repeatable; "
                        "default fast-ref:n=9)")
    p.add_argument("--tree")
    p.add_argument("--t", type=int, default=35)
    p.add_argument("--n-features", type=int, default=500)
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("make-dataset", help="synthetic warped frame sequence")
    p.add_argument("--base", help="base image path")
    p.add_argument("--synthetic", default="640x480",
                   help="WxH generated base when --base is absent")
    p.add_argument("--frames", type=int, default=6)
    p.add_argument("--warp-mag", type=float, default=1.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_dataset)

    p = sub.add_parser("anneal", help="optimize a detector tree for repeatability")
    p.add_argument("--dataset", required=True)
    p.add_argument("--imax", type=int, default=5000,
                   help="iterations per run (desk-scale default)")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--wr", type=float, default=1.0)
    p.add_argument("--wn", type=float, default=3500.0)
    p.add_argument("--ws", type=float, default=10000.0)
    p.add_argument("--alpha", type=float, default=30.0)
    p.add_argument("--beta", type=float, default=100.0)
    p.add_argument("--t", type=int, default=35)
    p.add_argument("--epsilon", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="anneal_")
    p.set_defaults(func=cmd_anneal)

    p = sub.add_parser("distill", help="single tree reproducing a 16-fold detector")
    p.add_argument("--tree", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--t", type=int, default=35)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_distill)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PgmError, TreeFormatError, InconsistentLabelsError,
            MissingWarpError, SingularHomographyError, ValueError,
            KeyError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
