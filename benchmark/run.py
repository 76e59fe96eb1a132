"""Run one benchmark workload, or every workload.

    python3 benchmark/run.py --workload detect-t35 --seed 1 --seconds 10 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 10

One workload runs in this process and prints, as its last line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. ``--workload all`` runs every workload in a fresh process,
untraced and traced, and prints a table plus the tracing overhead.
Inputs are generated from ``--seed`` under ``.bench_work/`` in the
checkout and removed afterwards.

``setup_s`` is the median over fresh processes of the time from process
start to the end of set-up (imports, input loading, tree fixtures,
detector construction); ``op_s`` is the geometric mean over the
workload's operation kinds of each kind's median time.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("detect-t35", "detect-t1", "repeat", "anneal", "learn")
SETUP_REPEATS = 3  # fresh processes untraced; in-process when traced
END_TO_END = {"setup_s": ("s", "lower"), "peak_rss_mb": ("MB", "lower"),
              "op_s": ("s", "lower")}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("default", "tiny"), default="default",
                   help="tiny inputs, for the benchmark's own smoke test")
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Import the checkout's package; exit 1 when the sources are absent."""
    src = ROOT / "src"
    if not (src / "cornerforge" / "__init__.py").is_file():
        sys.exit(f"benchmark: no package sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import cornerforge
    if Path(cornerforge.__file__).resolve().parent != src / "cornerforge":
        sys.exit(f"benchmark: imported cornerforge from {cornerforge.__file__}")


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def setup_probe(args) -> None:
    """Child process: import and set up once, then print the clock."""
    import_package()
    import workloads
    workloads.make(args.workload, args.seed, args.scale).setup(
        Path(args.setup_probe))
    print(repr(time.perf_counter()))


def setup_times(args, work: Path) -> list[float]:
    """Seconds from spawning a fresh process to the end of its set-up. The
    clock (CLOCK_MONOTONIC) is shared by all processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--scale", args.scale,
           "--setup-probe", str(work)]
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


def run_workload(args) -> dict:
    started = time.perf_counter()
    import_package()
    import layers
    import spans
    import workloads

    wl = workloads.make(args.workload, args.seed, args.scale)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    samples = {k: [] for k in wl.kinds}
    layer_rows = {k: [] for k in wl.kinds}
    setups, setup_rows = [], []
    attempted = failed = 0
    verified = {}  # kind -> digest of its checked first output, or None
    digests = {}  # kind -> digest of its first output
    try:
        wl.write_inputs(work)
        if tracer:
            layers.install(tracer)
            for _ in range(SETUP_REPEATS):
                tracer.reset()
                state = wl.setup(work)
                setup_rows.append(layers.collect(tracer))
        else:
            setups = setup_times(args, work)
            state = wl.setup(work)

        # Round-robin over the operation kinds; each kind runs until it has
        # used its share of the measuring time, and at least once.
        share = args.seconds / len(wl.kinds)
        while pending := [k for k in wl.kinds
                          if not samples[k] or sum(samples[k]) < share]:
            for kind in pending:
                if tracer:
                    tracer.reset()
                attempted += 1
                t0 = time.perf_counter()
                try:
                    out = wl.run(state, kind)
                except Exception:
                    samples[kind].append(time.perf_counter() - t0)
                    traceback.print_exc()
                    failed += 1
                    continue
                samples[kind].append(time.perf_counter() - t0)
                if tracer:
                    row = layers.collect(tracer)
                    row.update(wl.layer_counts(state, kind, out, tracer.values))
                    layer_rows[kind].append(row)
                digest = wl.digest(kind, out)
                if kind not in verified:
                    digests[kind] = digest
                    problems = wl.verify(state, kind, out)
                    for problem in problems:
                        print(f"check failed: {problem}", file=sys.stderr)
                    verified[kind] = None if problems else digest
                if verified[kind] != digest:
                    failed += 1
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    medians = {k: statistics.median(v) for k, v in samples.items()}
    print(f"digests: {json.dumps({args.workload: digests})}", file=sys.stderr)
    print("timing (s): set-up", *(f"{t:.3f}" for t in setups), file=sys.stderr)
    for kind, times in samples.items():
        print(f"timing (s): {kind}", *(f"{t:.3f}" for t in times), file=sys.stderr)
    print(f"timing (s): wall {time.perf_counter() - started:.1f}", file=sys.stderr)
    if not tracer:
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "op_s": geomean(medians.values()),
        }
        units = END_TO_END
    else:
        def typical(rows, name):
            return statistics.median(r.get(name, 0) for r in rows) if rows else 0

        metrics = {}
        for name in layers.METRICS:
            metrics[name] = typical(setup_rows, name) + sum(
                typical(rows, name) for rows in layer_rows.values())
        for kind, name in layers.DETECTOR_RATES.items():
            if kind in medians:
                metrics[name] = wl.pixels(state, kind) / medians[kind] / 1e6
        metrics["trace.op_s"] = geomean(medians.values())
        units = layers.METRICS
        if tracer.missing:
            print(f"not traced (absent): {', '.join(tracer.missing)}",
                  file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: metric(v, units[k][0]) for k, v in metrics.items()}}


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    import layers

    ok = True
    print(f"{'workload':<11} {'metric':<36} {'value':>14}  unit         better")
    for name in WORKLOADS:
        results = []
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace),
                   "--scale", args.scale]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            results.append(json.loads(lines[-1]))
            if not results[-1]["correct"]:
                sys.stderr.write(proc.stderr)
        passed = all(r["correct"] and r["failed"] == 0 for r in results)
        ok &= passed
        for res, table in zip(results, (END_TO_END, layers.METRICS)):
            for key, (unit, better) in table.items():
                value = res["metrics"][key]["value"]
                print(f"{name:<11} {key:<36} {value:>14.6g}  {unit:<12} {better}")
        plain = results[0]["metrics"]["op_s"]["value"]
        traced = results[1]["metrics"]["trace.op_s"]["value"]
        print(f"{name:<11} {'tracing overhead':<36} {100 * (traced / plain - 1):>14.2f}"
              f"  %")
        print(f"{name:<11} {'checks':<36} {'passed' if passed else 'FAILED':>14}  "
              f"{results[0]['attempted']} + {results[1]['attempted']} operations")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        sys.path.insert(0, str(HERE))
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
