"""Benchmark of causalcorr: one workload per process, a closed loop of ops.

Usage, from the repository root:

    python3 perfbench/run.py --workload contract --seed 1 --seconds 20 --trace 0

Workloads: ``contract`` (model evaluation), ``locality`` (Bell LP),
``structure`` (poset, marginals, rewrites) and ``cli`` (one process per
command).  Inputs are generated from ``--seed``.  With ``--trace 0`` the ops
run untraced for ``--seconds`` and the end-to-end metrics are printed; with
``--trace 1`` a fixed prefix of the op list runs alternately untraced and
traced, the per-layer metrics are printed, the spans are written under
``.bench_out/``, and the known-defect probes run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Without the package sources under ``src/`` it exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the host gives the run a few shared cores, and a second
# thread would measure the scheduler, not the program.  Set before numpy loads;
# the CLI processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = {"contract": "contract", "locality": "locality", "structure": "structure", "cli": "cli_ops"}
SETUP_REPEATS = 5
MIN_REPEATS = 2  # passes over the op list, at least
MIN_SAMPLES = 100  # op runs, at least: ten beyond the 90th percentile
# Package switches that would change what is measured; every run clears them.
CLEARED_ENV = ("CC_MAX_STATE_SPACE", "CC_NO_NUMBA")
models = None  # the benchmark's input module, imported by main() once the package path is set


class DeadlineExceeded(BaseException):
    """Raised by the interval timer inside an op that ran past its deadline.

    A BaseException, so that no ``except Exception`` in the program swallows it.
    """


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def run_op(op, deadline_s: float, in_process: bool):
    """Run one op; returns (seconds, failure reason or None)."""
    start = time.perf_counter()
    try:
        if in_process:
            signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            op.run()
        finally:
            if in_process:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return time.perf_counter() - start, "deadline"
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, "deadline"
    except Exception as exc:  # a failed op is counted and the run goes on
        return time.perf_counter() - start, f"{type(exc).__name__}: {str(exc)[:200]}"
    return time.perf_counter() - start, None


def environment() -> dict:
    import numpy

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas_threads": blas_threads(),
    }


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None where it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def setup(module, seed: int):
    """Build the inputs and run one op of each kind as warm-up; returns (ops, probes)."""
    workdir = OUT / f"inputs-{module.__name__}-{seed}"
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    ops, probes = module.build(seed, str(workdir))
    warmed = set()
    for op in ops:  # one op of each kind fills lazy caches before timing
        if op.kind not in warmed:
            warmed.add(op.kind)
            run_op(op, models.DEADLINE_S, module.IN_PROCESS)
    return ops, probes


# The reference snippet: a fixed mix of interpreted Python and small numpy
# calls, like the package's own work.  It runs before every timed op, and each
# op's time is divided by the median of the ``REF_WINDOW`` snippet times
# centred on it, so the metrics are in units of the snippet ("ref"), which
# cancels the host's speed at that moment.  On a shared host other tenants change that speed by
# up to 2x, for stretches from under a second to minutes; wall-clock times of
# the same code then spread wider than any useful regression bound.  The
# wall-clock figures are in ``info`` beside the metrics.
_REF_MATRIX = [[(i * 7 + j * 3) % 11 / 11.0 for j in range(16)] for i in range(16)]
REF_WINDOW = 5  # reference samples, centred on an op, in the median it is divided by


def reference_seconds() -> float:
    """Time of one run of the reference snippet (in-process workloads)."""
    import numpy as np

    t0 = time.perf_counter()
    a = np.array(_REF_MATRIX)
    total = 0
    for i in range(4000):
        total += i * i % 7
    counts = {}
    for i in range(1000):
        counts[i % 37] = counts.get(i % 37, 0) + 1
    for _ in range(40):
        a = a @ a
        a /= a.max()
    return time.perf_counter() - t0


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh processes of the time to import, build the inputs and warm up."""
    command = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--seconds", "0",
               "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.splitlines()[-1]))
    return statistics.median(times)


def timed_loop(ops, seconds: float, deadline_s: float, in_process: bool, reference):
    """Closed loop over the op list, in whole passes, until ``seconds`` have
    passed, the list has run ``MIN_REPEATS`` times and ``MIN_SAMPLES`` ops
    have run.  The reference runs before each op, outside the op's time.

    Returns one (op, seconds, reference seconds, failure or None) sample per
    op run, in order, and the wall time.
    """
    samples = []
    t0 = time.perf_counter()
    passes = 0
    while passes < MIN_REPEATS or len(samples) < MIN_SAMPLES or time.perf_counter() - t0 < seconds:
        for op in ops:
            ref = reference()
            took, why = run_op(op, deadline_s, in_process)
            samples.append((op, took, ref, why))
        passes += 1
    return samples, time.perf_counter() - t0


def untraced_run(module, workload, seed, seconds):
    ops, _ = setup(module, seed)
    reference = getattr(module, "reference_seconds", reference_seconds)
    samples, wall = timed_loop(ops, seconds, models.DEADLINE_S, module.IN_PROCESS, reference)
    # read before the set-up processes start, so that for ``cli`` only CLI processes count
    usage = resource.getrusage(resource.RUSAGE_SELF if module.IN_PROCESS else resource.RUSAGE_CHILDREN)
    setup_s = setup_seconds(workload, seed)
    # Each op's time is divided by the median of the reference times around
    # it.  A failed op misses any latency limit: it enters at the deadline,
    # divided by the run's median reference time.
    refs = [ref for _, _, ref, _ in samples]
    ref_s = statistics.median(refs)
    half = REF_WINDOW // 2
    around = [statistics.median(refs[max(0, i - half): i + half + 1]) for i in range(len(refs))]
    failures = [{"op": op.id, "why": why} for op, _, _, why in samples if why is not None]
    latency = [t / ref if why is None else models.DEADLINE_S / ref_s
               for (_, t, _, why), ref in zip(samples, around)]
    wall_latency = [t if why is None else models.DEADLINE_S for _, t, _, why in samples]
    attempted = len(samples)
    ok = attempted - len(failures)

    def summary(values):
        deciles = statistics.quantiles(values, n=10, method="inclusive")
        return deciles[4], deciles[8], ok / sum(values)

    p50, p90, rate = summary(latency)
    metrics = {
        "ok_ops_per_kref": 1000 * rate,
        "latency_p50_ref": p50,
        "latency_p90_ref": p90,
        "ok_ratio": ok / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    wall_p50, wall_p90, wall_rate = summary(wall_latency)
    ref_q = statistics.quantiles(refs, n=4)
    kinds = {}
    for (op, *_), value in zip(samples, latency):
        kinds.setdefault(op.kind, []).append(value)
    info = {
        "latency_samples": attempted, "passes": attempted // len(ops), "wall_s": wall,
        "reference_s": {"p25": ref_q[0], "p50": ref_s, "p75": ref_q[2]},
        "wall_clock": {"ok_ops_per_s": wall_rate, "latency_p50_s": wall_p50, "latency_p90_s": wall_p90},
        "kinds_median_ref": {kind: statistics.median(v) for kind, v in sorted(kinds.items())},
        "failures": failures,
    }
    return attempted, failures, metrics, info


def cli_import_seconds(repeats: int = 3) -> float:
    """Median time a fresh interpreter takes to import ``causalcorr.cli``."""
    code = "import time; t = time.perf_counter(); import causalcorr.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def traced_run(module, workload, seed, seconds, per_layer):
    import spans

    ops, probes = setup(module, seed)
    prefix = ops[: module.TRACE_OPS]
    tracer = spans.Tracer()
    extra = ()
    if not module.IN_PROCESS:
        extra = (("cli.process", module, "run_cli",
                  {subprocess.TimeoutExpired: "timeout", module.ExitMismatch: "exit_mismatch"}),)

    def one_pass(traced: bool):
        failures = []
        t0 = time.perf_counter()
        for op in prefix:
            tracer.begin(op.id if traced else None)
            _, why = run_op(op, models.DEADLINE_S, module.IN_PROCESS)
            if why is not None:
                failures.append({"op": op.id, "why": why, "traced": traced})
        return time.perf_counter() - t0, failures

    untraced_s, traced_s, failures = [], [], []
    t0 = time.perf_counter()
    while not traced_s or time.perf_counter() - t0 < seconds:
        wall, f = one_pass(False)
        untraced_s.append(wall)
        failures += f
        tracer.install(extra)
        try:
            wall, f = one_pass(True)
        finally:
            tracer.uninstall()
        traced_s.append(wall)
        failures += f
    passes = len(traced_s)

    probe_results = []
    for probe in probes:
        elapsed, why = run_op(probe, models.DEADLINE_S, module.IN_PROCESS)
        probe_results.append({"op": probe.id, "seconds": elapsed, "failed": why is not None, "why": why})

    stats = tracer.stats
    stats["cli.process.wall_s"] = stats["cli.process.self_s"]
    derived = {
        "cli.import_s": 0.0 if module.IN_PROCESS else cli_import_seconds(),
        "op.deadline_exceeded": sum(1 for f in failures + probe_results if f["why"] == "deadline"),
        "probe.failed": sum(1 for p in probe_results if p["failed"]),
        "trace.overhead_ratio": statistics.median(traced_s) / statistics.median(untraced_s),
    }
    metrics = {}
    for name in per_layer:
        if name in derived:
            metrics[name] = derived[name]
        elif name in tracer.maxima:
            metrics[name] = tracer.maxima[name]
        else:
            metrics[name] = stats.get(name, 0.0) / passes

    spans_path = OUT / f"spans-{workload}-{seed}.jsonl"
    tracer.write(spans_path)
    info = {"passes": passes, "ops_per_pass": len(prefix), "absent": tracer.absent, "probes": probe_results,
            "failures": failures, "spans": str(spans_path.relative_to(ROOT))}
    return 2 * passes * len(prefix), failures, metrics, info


def main(argv=None) -> int:
    global models
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "causalcorr" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in CLEARED_ENV:
        os.environ.pop(var, None)
    sys.path.insert(0, str(SRC))
    import causalcorr
    import models

    if Path(causalcorr.__file__).resolve().parent != (SRC / "causalcorr").resolve():
        print(f"error: causalcorr imported from {causalcorr.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    module = importlib.import_module(WORKLOADS[args.workload])
    OUT.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.setup_only:  # one set-up for setup_seconds(); prints its time since start-up
        setup(module, args.seed)
        print(time.perf_counter() - T_START)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        per_layer = [metric["name"] for metric in spec["per_layer"]]
        attempted, failures, values, info = traced_run(module, args.workload, args.seed, args.seconds, per_layer)
        units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    else:
        attempted, failures, values, info = untraced_run(module, args.workload, args.seed, args.seconds)
        units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    shutil.rmtree(OUT / f"inputs-{module.__name__}-{args.seed}", ignore_errors=True)

    info.update(workload=args.workload, seed=args.seed, trace=args.trace, deadline_s=models.DEADLINE_S,
                environment=environment())
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
