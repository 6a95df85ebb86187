"""kdqflux benchmark driver.

    python3 perfbench/run.py --workload reference_run --seed 0 --seconds 30 --trace 0

Runs one workload (see ``workloads.py``) against the package in ``src/`` of
this checkout, in this process, as a closed loop with one client, and checks
every op (see ``checks.py``). The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``:

* ``--trace 0``: the end-to-end metrics, timed with tracing off;
* ``--trace 1``: the per-layer metrics of ``tracing.py``, from passes over a
  fixed list of ops, each run once untraced and once traced.

A result file with provenance goes to ``.perfbench_out/``. BLAS threads are
pinned to 1 before numpy is imported.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_ENV:        # before numpy is first imported
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from checks import check, load_reference, reference_path  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import (N_MAX, SHORT_N_MAX, SWEEP_POINTS, TINY_N_MAX,  # noqa: E402
                       WORKLOADS)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 15
SETUP_SNIPPET = ("import time, numpy, kdqflux; "
                 "kdqflux.analyze(kdqflux.RunConfig(n_max=3)); "
                 "print(time.monotonic())")
TAIL_BEYOND = 10          # ops that must lie beyond the reported tail
TRACE_OPS = {"reference_run": 3, "detuning_sweep": 1, "random_short_runs": 40}
TINY_TRACE_OPS = 2
# one calibration time in seconds: the median of calibrate() over 60 runs on
# the 2-core host the benchmark was built on; it turns setup_s back into seconds
CAL_SECONDS = 7.0e-4
CAL_MATRIX = np.array([[2.0, 1j, 0.0, 0.5], [-1j, 1.0, 0.2, 0.0],
                       [0.0, 0.2, 3.0, 1.0], [0.5, 0.0, 1.0, 0.5]])


def import_program():
    """Import kdqflux from this checkout's ``src/``, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import kdqflux
        import kdqflux.cli  # noqa: F401  (not imported by the package itself)
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import kdqflux from {SRC}: {exc}")
    if Path(kdqflux.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: kdqflux was imported from {kdqflux.__file__}, "
                         f"not from {SRC}")
    return kdqflux


def measure_setup() -> float:
    """Time from spawning a fresh interpreter to the end of its warm-up. The
    child reports when it finished on the system-wide monotonic clock, so
    neither its exit nor the parent's polling of it is timed."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env,
                          cwd=ROOT, check=True, timeout=120,
                          capture_output=True, text=True)
    return float(done.stdout.split()[-1]) - start


def setup_sample() -> tuple[float, float]:
    """One set-up time in seconds, and the same divided by the mean of the
    calibrations just before and just after it."""
    before = calibrate()
    took = measure_setup()
    return took, took / (before + calibrate()) * 2


def execute(workload, op, reference, tracer=None):
    """Run one op; return (seconds, failure reason or None, outcome)."""
    prepared = workload.prepare(op)
    error = None
    if tracer is not None:
        tracer.op_id = op.index
    start = time.perf_counter()
    try:
        answer = workload.run(prepared)
    except Exception as exc:  # a failed op is counted, the loop goes on
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.op_id = None
    if error is not None:
        return elapsed, error, None
    try:
        outcome = workload.read(prepared, answer)
    except Exception as exc:
        return elapsed, f"{type(exc).__name__}: {exc}", None
    return elapsed, check(op, outcome, reference), outcome


class Tally:
    """Op times, calibration samples and failures of one run."""

    def __init__(self):
        self.times: list[float] = []
        self.cals: list[float] = []
        self.failures: list[str] = []
        self.collisions = 0

    def add(self, op, elapsed, reason):
        self.times.append(elapsed)
        if reason is None:
            self.collisions += op.collisions
        else:
            self.failures.append(f"op {op.index}: {reason}")


def calibrate() -> float:
    """Median of five timings of a fixed kernel, about 1 ms each.

    The kernel does what the program's per-collision loop does most, small
    numpy calls on 4x4 complex arrays and building Python records, and never
    changes, so the ratio of an op's time to it cancels the machine-speed
    drift of a shared host (measured at up to 17% between runs minutes
    apart). Against a repeated op, its ratio drifted less (coefficient of
    variation 0.036 over 100 s) than that of a kernel of 4x4 ``eigvalsh``,
    matmul and arithmetic alone (0.053), which missed most of a slowdown
    that hit the program.
    """
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0.0
        for _ in range(60):
            acc += float(np.trace(np.zeros((4, 4), complex) @ CAL_MATRIX).real)
        records = {i: (i, str(i)) for i in range(600)}
        acc += sum(v[0] for v in records.values())
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond) of the highest percentile that has
    ``TAIL_BEYOND`` ops beyond it; the maximum when there are too few ops."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def end_to_end(workload, warm_up, seed, seconds, reference, tally, setup_repeats):
    execute(warm_up, warm_up.op(seed, 0), {})   # lazy set-up, not timed
    calibrate()
    busy, index, setups = 0.0, 0, []
    while busy < seconds:
        # set-up samples are spread over the run, between ops and untimed,
        # so that their median sees the same drift in machine speed as the ops
        if len(setups) < setup_repeats and busy >= len(setups) * seconds / setup_repeats:
            setups.append(setup_sample())
        op = workload.op(seed, index)
        tally.cals.append(calibrate())
        elapsed, reason, _ = execute(workload, op, reference)
        tally.add(op, elapsed, reason)
        busy += elapsed
        index += 1
    tally.cals.append(calibrate())
    while len(setups) < setup_repeats:
        setups.append(setup_sample())
    # set-up time drifts with the host's speed as much as op time does, so it
    # is calibrated too, and given in seconds at the build host's median speed
    setup_s = statistics.median(rel for _, rel in setups) * CAL_SECONDS
    # each op is divided by the mean of the calibrations just before and just
    # after it: the machine's speed while the op ran
    cals = tally.cals
    rel = [t / (cals[i] + cals[i + 1]) * 2 for i, t in enumerate(tally.times)]
    rel_tail, pct, beyond = tail(rel)
    raw_tail = tail(tally.times)[0]
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_p50_rel": (statistics.median(rel), "cal"),
        "op_tail_rel": (rel_tail, "cal"),
        "collisions_per_cal": (tally.collisions / sum(rel), "1/cal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    details = {"op_p50_s": statistics.median(tally.times), "op_tail_s": raw_tail,
               "collisions_per_s": tally.collisions / busy,
               "fail_ratio": len(tally.failures) / len(tally.times),
               "op_tail_percentile": pct, "op_tail_beyond": beyond,
               "ops": len(tally.times), "busy_s": busy,
               "cal_p50_s": statistics.median(tally.cals),
               "setup_raw_s": statistics.median(took for took, _ in setups),
               "setup_seconds": [took for took, _ in setups]}
    return metrics, details, None


def traced(kdqflux, workload, seed, seconds, reference, tally, n_ops):
    ops = [workload.op(seed, i) for i in range(n_ops)]
    collisions = sum(op.collisions for op in ops)
    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < seconds:
        tracer = Tracer(kdqflux)
        walls = {False: 0.0, True: 0.0}
        files = size = 0
        for i, op in enumerate(ops):
            # each op runs untraced and traced back to back, the order
            # alternating, so that drift in machine speed cancels out
            for on in (False, True) if (len(passes) + i) % 2 else (True, False):
                if on:
                    tracer.install()
                try:
                    elapsed, reason, outcome = execute(
                        workload, op, reference, tracer if on else None)
                finally:
                    tracer.uninstall()
                tally.add(op, elapsed, reason)
                walls[on] += elapsed
                if on and outcome is not None:
                    files += outcome.files_written
                    size += outcome.bytes_written
        spans = tracer.span_array()
        tracer.spans.clear()     # span_array() holds a copy
        passes.append((walls[True], walls[False], files, size, tracer, spans))

    overhead = statistics.median(t - u for t, u, *_ in passes)
    passes.sort(key=lambda p: p[0])
    wall, _, files, size, tracer, spans = passes[len(passes) // 2]
    layers = tracer.layer_summary(spans)
    metrics = {}
    for name in LAYERS:
        self_s, calls = layers[name]
        metrics[f"{name}.self_s"] = (self_s, "s")
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.calls_per_collision"] = (calls / collisions, "1/collision")
    for name, value in tracer.counters.items():
        metrics[name] = (value, "computed_bytes" if name.endswith("_bytes")
                         else "count")
    metrics["cli.files_written"] = (files, "count")
    metrics["cli.bytes_written"] = (size, "bytes")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.uncovered_s"] = (wall - sum(s for s, _ in layers.values()), "s")
    metrics["trace.wall_s"] = (wall, "s")
    details = {"passes": len(passes), "ops_per_pass": n_ops,
               "collisions_per_pass": collisions, "spans": len(spans)}
    return metrics, details, (tracer, spans)


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, env=env)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(kdqflux, args, sizes) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "kdqflux").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(), "src_sha256": digest.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "sizes": sizes,
        "python": platform.python_version(), "numpy": np.__version__,
        "kdqflux": kdqflux.__version__, "platform": platform.platform(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for smoke tests")
    args = parser.parse_args(argv)

    kdqflux = import_program()
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    cls = WORKLOADS[args.workload]
    workload = cls(kdqflux, work_dir, tiny=args.tiny)
    reference = load_reference(reference_path(args.workload))
    sizes = {"n_max": TINY_N_MAX if args.tiny else N_MAX,
             "sweep_points": SWEEP_POINTS, "short_n_max": SHORT_N_MAX,
             "trace_ops": TINY_TRACE_OPS if args.tiny else TRACE_OPS[args.workload]}
    tally = Tally()
    try:
        if args.trace:
            metrics, details, spans = traced(kdqflux, workload, args.seed,
                                             args.seconds, reference, tally,
                                             sizes["trace_ops"])
        else:
            metrics, details, spans = end_to_end(
                workload, cls(kdqflux, work_dir, tiny=True), args.seed,
                args.seconds, reference, tally, 1 if args.tiny else SETUP_REPEATS)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(exist_ok=True)
    if spans is not None:
        spans[0].write_spans(OUT_DIR / f"{stem}-spans.csv.gz", spans[1])
    result = {
        "correct": not tally.failures,
        "attempted": len(tally.times),
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        **result, "details": details, "failures": tally.failures[:20],
        "op_seconds": tally.times, "calibration_seconds": tally.cals,
        "provenance": provenance(kdqflux, args, sizes)}, indent=2) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(tally.times)} failed={len(tally.failures)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    for name, value in details.items():
        print(f"  {name:32s} {value}")
    for failure in tally.failures[:5]:
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
