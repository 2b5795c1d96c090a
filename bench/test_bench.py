"""Tests of the benchmark itself (not of the engine).

    python3 -m pytest bench/test_bench.py -q

They run real workload units, so the file takes a few minutes. The
in-process tests share one set-up per workload.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import pytest  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from tracer import Probe, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 5
EXACT_COUNTS = (
    "tensor.graph_nodes",
    "tensor.conv2d.calls",
    "network.forward.samples",
    "training.evaluate_frames.calls",
    "events.read_events.bytes",
)
# Spans must cover the traced wall time of a unit to within this share; the
# rest is the benchmark's own loop between spans.
SPAN_COVERAGE_TOLERANCE = 0.03


def _namespace_snapshot():
    """Identity of every attribute of every engine module and class."""
    snap = {}
    for name, mod in sys.modules.items():
        if name == "spikefuse" or name.startswith("spikefuse."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        snap[(name, attr, cattr)] = cvalue
    return snap


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_units(request, tmp_path_factory):
    """One untraced and two traced units of a workload, with their digests,
    counts and timings."""
    workload = WORKLOADS[request.param]()
    workload.setup(SEED, tmp_path_factory.mktemp(request.param))
    before = _namespace_snapshot()
    probe = Probe()
    probe.install()
    probe.enabled = True
    probe.begin_unit()
    digests = [probe.end_unit(workload.unit())]
    tracer = Tracer()
    tracer.install()
    counts, coverage, balance = [], [], []
    for _ in range(2):
        tracer.reset()
        probe.begin_unit()
        t0 = time.perf_counter()
        extra = workload.unit()
        wall = time.perf_counter() - t0
        digests.append(probe.end_unit(extra))
        counts.append(tracer.metrics(1))
        coverage.append(tracer.top_s / wall)
        balance.append(sum(tracer.self_s.values()) / tracer.top_s)
    restored = all([tracer.restore(), probe.restore()])
    return {"name": request.param, "digests": digests, "counts": counts,
            "coverage": coverage, "balance": balance, "restored": restored,
            "unchanged": _namespace_snapshot() == before}


def test_exact_counts_repeat(traced_units):
    first, second = traced_units["counts"]
    for name in EXACT_COUNTS:
        assert first.get(name, 0) == second.get(name, 0), name


def test_tracing_leaves_outputs_bitwise_unchanged(traced_units):
    untraced, *traced = traced_units["digests"]
    assert all(d == untraced for d in traced)


def test_every_patched_attribute_is_restored(traced_units):
    assert traced_units["restored"]
    assert traced_units["unchanged"]


def test_span_self_times_reconcile_with_wall_time(traced_units):
    for balance in traced_units["balance"]:
        assert balance == pytest.approx(1.0, rel=1e-9)
    for coverage in traced_units["coverage"]:
        assert 1.0 - SPAN_COVERAGE_TOLERANCE <= coverage <= 1.0


def test_predicted_structure(traced_units):
    counts = traced_units["counts"][0]
    if traced_units["name"] == "robustness_sweep":
        assert counts.get("attention.compute_attention.calls", 0) == 0
        assert counts.get("tensor.conv2d.bwd_s", 0) == 0
        assert counts["training.evaluate_frames.calls"] == 13
    if traced_units["name"] == "gesture_step":
        ops = {k: v for k, v in counts.items()
               if k.startswith("tensor.") and k.endswith(("fwd_s", "bwd_s"))}
        assert max(ops, key=ops.get) == "tensor.conv2d.bwd_s"


def test_host_factor_brackets_each_call():
    import run

    calls = []
    walls, factors = run.timed_calls(run.HostClock(),
                                     lambda: calls.append(time.sleep(0.01)),
                                     lambda walls: len(walls) < 3)
    assert len(calls) == len(walls) == len(factors) == 3
    assert all(w >= 0.01 for w in walls)
    # A factor is REFERENCE_WORK_S over a reference time, and the reference
    # work takes a few hundredths of a second at least on any host.
    assert all(0 < f < run.REFERENCE_WORK_S / 0.01 for f in factors)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_matches_benchmark_spec(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _run(ROOT, "--workload", "synth_bar_epoch", "--seed", str(SEED),
               "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_fails_without_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run(tmp_path, "--workload", "synth_bar_epoch", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
