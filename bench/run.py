"""Benchmark of the spikefuse engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from
``src/`` of that checkout and nowhere else. The run sets the workload up
several times (``setup_s`` adds the median set-up to the median start-up
and import time of fresh interpreters), runs closed-loop timed units for
``--seconds`` seconds, checks the outputs, prints a readable report and, as
its last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``. The gated times are host-normalised: each timed call is
scaled by how long a fixed reference computation took around it (see
``reference_work``). ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics. The full report,
including every span and count, goes to ``.bench_out/`` in the checkout.
See bench/README.md.
"""

import os
import sys
import time

# BLAS and OpenMP pools are pinned before numpy is first imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent

# Set-up runs at least SETUP_REPEATS times and until SETUP_SECONDS have
# passed: one set-up of a cheap workload varies by up to 2x within a process.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
IMPORT_REPEATS = 5
# What a fresh process imports before its set-up starts.
IMPORT_CODE = "import sys; sys.path[:0] = sys.argv[1:]; import numpy, tracer, workloads"
PERCENTILES = (99, 95, 90, 75, 50)
# Wall time of ``reference_work`` on the reference host (2 shared vCPUs of
# an Intel Xeon, numpy 2.4 with OpenBLAS 0.3.31 on one thread). A gated
# time is a wall time rescaled to a host running at that speed.
REFERENCE_WORK_S = 0.12
perf = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_engine():
    """Import spikefuse from this checkout's ``src/``; refuse any other copy."""
    package = SRC / "spikefuse"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no spikefuse sources at {package}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH))
    import spikefuse

    if Path(spikefuse.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported spikefuse from {spikefuse.__file__}, not {package}")


def timing_summary(values):
    """Median, sample count, and the highest percentile with at least ten
    samples beyond it."""
    out = {"median": statistics.median(values), "n": len(values)}
    for p in PERCENTILES:
        if len(values) - math.ceil(len(values) * p / 100) >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def reference_inputs():
    """The large arrays ``reference_work`` reads and writes. They are made
    once, so that the reference work maps no new memory and leaves the
    run's peak RSS alone."""
    import numpy as np

    rng = np.random.default_rng(0)
    return {
        "a": rng.random((512, 288)), "b": rng.random((288, 32)),
        "ab": np.empty((512, 32)),
        "small": rng.random((16, 8, 8)),
        "large": rng.random(1_000_000), "large_out": np.empty(1_000_000),
        "index": rng.integers(0, 200_000, size=400_000), "acc": np.zeros(200_000),
    }


def reference_work(x):
    """A fixed computation that no change to the engine can move, shaped
    like the engine's work: small-array numpy ops and closures in an
    interpreter loop (an autodiff graph of a small network), dict updates
    and object allocation (graph bookkeeping), a matmul, elementwise passes
    over arrays larger than a core's caches (large feature maps) and an
    ``np.add.at`` scatter (convolution backward). It takes about
    ``REFERENCE_WORK_S`` on the reference host.

    The shared host's speed changes by up to 1.7x for seconds at a time and
    drifts over minutes, and that slows this computation and the workloads
    alike. Timing it around every timed call and dividing it out leaves
    what the engine's code decides."""
    import numpy as np

    for _ in range(10):
        nodes = []
        for i in range(300):
            v = x["small"] * 0.5 + i
            nodes.append((np.maximum(v - 0.3, 0.0), lambda g, i=i: g * i))
        for value, backward in nodes:
            backward(value).sum()
    counts = {}
    for i in range(60_000):
        counts[i % 100] = counts.get(i % 100, 0) + i
    graph = [(i, [i], {"parents": (i,)}) for i in range(20_000)]
    del graph
    for _ in range(36):
        np.matmul(x["a"], x["b"], out=x["ab"])
    for _ in range(6):
        np.multiply(x["large"], 1.5, out=x["large_out"])
        np.add(x["large_out"], x["large"], out=x["large_out"])
        x["large_out"].sum()
    for _ in range(4):
        np.add.at(x["acc"], x["index"], 1.0)


class HostClock:
    """Times calls with ``reference_work`` between them.

    A call's host factor is ``REFERENCE_WORK_S`` over the mean reference
    time just before and after it; wall time times factor is the call's
    time on the reference host."""

    def __init__(self):
        self.inputs = reference_inputs()
        reference_work(self.inputs)  # its first run is cold and slower
        self.last = self.reference()

    def reference(self):
        t0 = perf()
        reference_work(self.inputs)
        return perf() - t0

    def call(self, fn):
        """Run ``fn``; return its wall time, host factor and result."""
        t0 = perf()
        result = fn()
        wall = perf() - t0
        ref = self.reference()
        factor = 2 * REFERENCE_WORK_S / (self.last + ref)
        self.last = ref
        return wall, factor, result


def timed_calls(clock, fn, more):
    """Call ``fn`` while ``more(walls)`` holds; return each call's wall time
    and host factor."""
    walls, factors = [], []
    while more(walls):
        wall, factor, _ = clock.call(fn)
        walls.append(wall)
        factors.append(factor)
    return walls, factors


def scaled_median(walls, factors):
    return statistics.median(w * f for w, f in zip(walls, factors))


def import_times(clock):
    """Wall times and host factors of fresh interpreters that start and
    import what this run imported before its set-up. This process's own
    import ran once and cold, so ``setup_s`` takes these instead."""
    def start():
        subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC), str(BENCH)],
                       check=True, env=os.environ)
    return timed_calls(clock, start, lambda walls: len(walls) < IMPORT_REPEATS)


def run_context(seed):
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit():
    """The checkout's commit when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "spikefuse").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Outcome:
    """Attempted and failed operations, and the named output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = {}

    def ops(self, attempted, failed=0):
        self.attempted += attempted
        self.failed += failed

    def check(self, name, ok):
        self.ops(1, 0 if ok else 1)
        self.checks[name] = self.checks.get(name, True) and bool(ok)


def run_units(workload, probe, clock, seconds, min_units=1):
    """Closed loop: start the next unit while one more typical unit still
    fits in ``seconds``. A unit runs the workload's phases, each timed on
    the host clock, and every probe sample gets the host factor of its
    phase. Returns per-unit wall times, host factors (of the unit as a
    whole) and output digests."""
    walls, factors, digests = [], [], []
    start = perf()
    while len(walls) < min_units or perf() - start + statistics.median(walls) <= seconds:
        probe.begin_unit()
        wall, scaled, outputs = 0.0, 0.0, []
        for phase in workload.phases():
            w, factor, out = clock.call(phase)
            probe.stamp(factor)
            wall, scaled = wall + w, scaled + w * factor
            outputs.append(out)
        walls.append(wall)
        factors.append(scaled / wall)
        digests.append(probe.end_unit(*outputs))
    return walls, factors, digests


def timed_phase(args, workload, probe, clock, outcome, report):
    """Run the units; in trace mode run untraced units first, then the same
    units traced, then one unit under tracemalloc. Returns the wall times
    and probe records of the untraced units, and every unit's digest."""
    from tracer import Tracer

    if not args.trace:
        walls, factors, digests = run_units(workload, probe, clock, args.seconds)
        return walls, factors, probe.units, digests
    # The difference between the untraced and traced units is the tracing
    # overhead, and their outputs must not differ.
    walls, factors, digests = run_units(workload, probe, clock, args.seconds / 3, min_units=2)
    untraced = list(probe.units)
    tracer = Tracer()
    tracer.install()
    t_walls, _, t_digests = run_units(workload, probe, clock, args.seconds * 2 / 3)
    outcome.check("patches_restored", tracer.restore())
    for d in t_digests:
        outcome.check("traced_outputs_equal_untraced", d == digests[0])
    probe.enabled = False
    tracemalloc.start()
    workload.unit()
    mem_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    layers = tracer.metrics(len(t_walls))
    layers["mem.peak_traced_mb"] = mem_peak / 2**20
    report["per_layer"] = dict(sorted(layers.items()))
    report["trace"] = {
        # the first untraced unit runs cold and is left out
        "untraced_unit_s": timing_summary(walls[1:]),
        "traced_unit_s": timing_summary(t_walls),
        "overhead_s": statistics.median(t_walls) - statistics.median(walls[1:]),
        "top_span_s": tracer.top_s,
        "traced_wall_s": sum(t_walls),
        "span_coverage": tracer.top_s / sum(t_walls),
    }
    return walls, factors, untraced, digests + t_digests


def main(argv=None) -> int:
    args = parse_args(argv)
    import_engine()

    from tracer import Probe
    from workloads import WORKLOADS

    import_s = perf() - T_START
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH / "reference.json").read_text())
    out_dir = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)

    work_dir = out_dir / "work"
    workload = WORKLOADS[args.workload]()
    clock = HostClock()
    setup_times, setup_factors = timed_calls(
        clock,
        lambda: workload.setup(args.seed, work_dir),
        lambda walls: len(walls) < SETUP_REPEATS or sum(walls) < SETUP_SECONDS)
    start_times, start_factors = import_times(clock)
    setup_s = (scaled_median(start_times, start_factors)
               + scaled_median(setup_times, setup_factors))

    outcome = Outcome()
    report = {"workload": args.workload, "context": run_context(args.seed),
              "import_s": import_s, "start_import_s": start_times,
              "setup_repeats_s": setup_times,
              "raw_setup_s": statistics.median(start_times) + statistics.median(setup_times)}
    probe = Probe()
    probe.install()
    probe.enabled = True
    walls, factors, units, digests = timed_phase(args, workload, probe, clock, outcome, report)
    outcome.check("patches_restored", probe.restore())

    # Operations: every train step and inference batch of every unit, each
    # sweep level, and each output check.
    for unit in probe.units:
        outcome.ops(len(unit["train"]) + len(unit["infer"]))
    outcome.ops(0, probe.bad_steps)
    for d in digests[1:]:
        outcome.check("repeat_outputs_bitwise_equal", d == digests[0])
    if hasattr(workload, "level_failures"):
        outcome.ops(workload.level_count * len(digests), workload.level_failures() * len(digests))
    for name, ok in workload.final_checks(reference):
        outcome.check(name, ok)
    if work_dir.exists():
        shutil.rmtree(work_dir)

    # Every timing is the median over its samples: wall times as measured,
    # and, for the gated metrics, the same samples scaled by the host factor
    # of their phase. The gesture unit is a train step with the no-grad
    # batches after it; its gated unit is the train step alone.
    steps = [x for u in units for x in u["train"]]
    infer = [x for u in units for x in u["infer"]]
    timings = {f"{workload.unit_name}_s": timing_summary(walls)}
    if steps:
        timings["train_step_s"] = timing_summary([t for _, t, _ in steps])
        timings["train_samples_per_s"] = timing_summary([n / t for n, t, _ in steps])
    timings["infer_samples_per_s"] = timing_summary([n / t for n, t, _ in infer])
    timings["host_factor"] = timing_summary(factors)
    if workload.unit_is_step:
        unit_s = statistics.median(t * f for _, t, f in steps)
    else:
        unit_s = scaled_median(walls, factors)
    end_to_end = {
        "setup_s": setup_s,
        "unit_s": unit_s,
        "infer_samples_per_s": statistics.median(n / (t * f) for n, t, f in infer),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report.update({
        "units": len(digests),
        "unit": workload.unit_name,
        "end_to_end": end_to_end,
        "timings": timings,
        "losses": probe.losses[: len(probe.losses) // len(digests)],
        "output_digest": digests[0],
        "checks": outcome.checks,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_share": outcome.failed / outcome.attempted,
    })
    (out_dir / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")

    print_report(report)
    values, chosen = ((report["per_layer"], spec["per_layer"]) if args.trace
                      else (end_to_end, spec["end_to_end"]))
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in chosen}
    correct = outcome.failed == 0 and all(outcome.checks.values())
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def print_report(report):
    ctx = report["context"]
    print(f"workload {report['workload']}  seed {ctx['seed']}  units {report['units']}  "
          f"nproc {ctx['nproc']}  python {ctx['python']}  numpy {ctx['numpy']}  "
          f"blas {ctx['blas'].get('name')} {ctx['blas'].get('version')}  "
          f"threads {ctx['threads']}  commit {ctx['git_commit']}")
    for name, value in report["end_to_end"].items():
        print(f"  {name:<28} {value:.6g}")
    for name, summary in report["timings"].items():
        extra = "  ".join(f"{k} {v:.6g}" for k, v in summary.items() if k != "median")
        print(f"  {name:<28} median {summary['median']:.6g}  {extra}")
    print(f"  {'failed_share':<28} {report['failed_share']:.6g}  "
          f"({report['failed']} of {report['attempted']})")
    for name, ok in report["checks"].items():
        print(f"  check {name:<40} {'ok' if ok else 'FAILED'}")
    if "trace" in report:
        for name, value in report["trace"].items():
            if isinstance(value, dict):
                value = value["median"]
            print(f"  trace.{name:<22} {value:.6g}")
        for name, value in report["per_layer"].items():
            if not name.endswith(".incl_s"):
                print(f"  {name:<48} {value:.6g}")


if __name__ == "__main__":
    sys.exit(main())
