"""The benchmark's own smoke test: every workload at tiny size, untraced and
traced, plus the tracer's bookkeeping.

    python3 -m pytest benchmark/test_benchmark.py

The learn workload pads with all 3^16 ring configurations at any image
size, so its two cases take about 45 s each and 2 GB of memory.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from spans import Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(*args, cwd=None, timeout=300):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_tiny_size(workload, trace):
    proc = run(str(HERE / "run.py"), "--workload", workload, "--seed", "3",
               "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(str(tmp_path / HERE.name / "run.py"), "--workload", "anneal",
               "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_self_time_and_missing_targets():
    tracer = Tracer()
    fake = type(sys)("cornerforge_fake")

    def inner():
        time.sleep(0.01)

    def outer():
        fake.inner()
        time.sleep(0.01)

    class Base:
        def f(self):
            return 1

    class Sub(Base):
        pass

    fake.inner, fake.outer, fake.Sub = inner, outer, Sub
    sys.modules["cornerforge.fake"] = fake
    try:
        assert tracer.install("fake.Sub.f", "f")
        assert Sub().f() == 1
        assert tracer.install("fake.inner", "inner")
        assert tracer.install("fake.outer", "outer",
                              lambda tr, a, k, r: tr.add("outer.calls", 1))
        assert not tracer.install("fake.gone", "gone")
        assert not tracer.install("no_such_module.f", "f")
        fake.outer()
    finally:
        tracer.uninstall()
        del sys.modules["cornerforge.fake"]
    assert fake.outer is outer and fake.inner is inner
    assert "f" not in vars(Sub) and Sub().f() == 1
    assert tracer.missing == ["fake.gone", "no_such_module.f"]
    assert tracer.counts == {"outer.calls": 1}
    totals, own = tracer.totals(), tracer.self_times()
    assert totals["outer"] >= totals["inner"] >= 0.01 and "f" in totals
    assert own["outer"] == pytest.approx(totals["outer"] - totals["inner"])
