"""Benchmark of kslogistic, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it imports kslogistic from ./src.
Workloads: long_1d, chi_sweep, front_2d, gate (see workloads.py and
README.md).  Each is a closed loop: one repetition at a time.

--trace 0 measures the end-to-end metrics:
  setup_s       median of three fresh interpreters, each timed from
                start to ready (import, scenarios loaded, grids and
                initial data built)
  wall_s        median wall time of one repetition over the repetitions
                that fit in S seconds; an in-process workload runs one
                untimed warm-up repetition first
--trace 1 runs one repetition under tracemalloc (peak_heap_mb; for an
in-process workload it is also the warm-up), then alternates untraced
and traced repetitions for S seconds and reports the per-layer metrics
of layers.py, with the tracing overhead (median traced wall time minus
median untraced wall time).

Every repetition's outputs are checked.  The last line printed is one
JSON object with the keys correct, attempted, failed and metrics; the
same object, with the machine's details, goes to
bench/results/<workload>_seed<N>_trace<T>.json.
"""

from __future__ import annotations

import os

#: thread pools pinned to one thread each, so a run never uses more
#: threads than the machine has cores
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from statistics import median  # noqa: E402

from workloads import BENCH_DIR, ROOT, SRC, WORKLOADS, Gate, child_env  # noqa: E402

SETUP_PROBES = 3
CHILD = str(BENCH_DIR / "child.py")


class BenchError(RuntimeError):
    pass


def parse_args(argv):
    ap = argparse.ArgumentParser(description="kslogistic benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _run_child(args: list, timeout: float):
    return subprocess.run([sys.executable, CHILD, *args], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def probe_setup(workload: str, seed: int, workdir) -> float:
    """Seconds from starting a fresh interpreter until it reports ready."""
    cmd = [sys.executable, CHILD, "setup", workload, str(seed), str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {err[-500:]}")
    return elapsed


class Tally:
    """Operations attempted and failed, and every check that did not hold."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.problems: list = []

    def rep(self, run_rep):
        """Run one repetition through run_rep() -> (figure, outcome), check
        the outcome and return the figure (None if the repetition crashed)."""
        self.w.reset_outputs()
        self.attempted += self.w.ops
        try:
            figure, outcome = run_rep()
            failures, problems = self.w.check(outcome)
        except Exception:  # a crashing repetition is a failed round, not a dead run
            self.failed += self.w.ops
            self.problems.append(traceback.format_exc(limit=4))
            return None
        self.failed += len(failures)
        self.failures += [f for f in failures if f not in self.failures]
        self.problems += problems
        return figure


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def heap_rep(w):
    """(peak heap bytes, outcome) of one repetition under tracemalloc."""
    if isinstance(w, Gate):
        proc = _run_child(["gate-heap"], timeout=170)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        return json.loads(last).get("peak_bytes", 0), (proc.returncode, proc.stdout + proc.stderr)
    import tracemalloc

    tracemalloc.start()
    try:
        outcome = w.rep()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, outcome


def end_to_end(w, args, tally, workdir) -> dict:
    setup = [probe_setup(w.name, args.seed, workdir / f"probe{k}") for k in range(SETUP_PROBES)]
    w.setup()
    if not isinstance(w, Gate):  # the first repetition in a process fills caches
        tally.rep(lambda: timed(w.rep))
    walls = []
    t_start = time.perf_counter()
    while not walls or time.perf_counter() - t_start < args.seconds:
        wall = tally.rep(lambda: timed(w.rep))
        if wall is None:
            break
        walls.append(wall)
    return {
        "metrics": {
            "setup_s": (median(setup), "s"),
            "wall_s": (median(walls) if walls else float("nan"), "s"),
        },
        "setup_samples": setup,
        "walls": walls,
    }


def per_layer(w, args, tally, workdir, import_s: float) -> dict:
    from layers import REP, UNITS, layer_metrics, make_tracer

    plain, traced = [], []
    out_file = workdir / "layers.json"

    def untraced_rep():
        return timed(w.rep)

    if isinstance(w, Gate):
        def traced_rep():
            def go():
                proc = _run_child(["gate-traced", str(out_file)], timeout=170)
                return proc.returncode, proc.stdout + proc.stderr
            return timed(go)
    else:
        tracer = make_tracer()
        with tracer.installed(), tracer.span("bench.setup"):
            w.setup()

        def traced_rep():
            with tracer.installed(), tracer.span(REP):
                return timed(w.rep)

    # also the warm-up of an in-process workload: its first repetition fills caches
    peak = tally.rep(lambda: heap_rep(w))
    output_bytes = []
    t_start = time.perf_counter()
    while not traced or time.perf_counter() - t_start < args.seconds:
        a = tally.rep(untraced_rep)
        b = tally.rep(traced_rep)
        if a is None or b is None:
            break
        output_bytes.append(w.output_bytes())
        plain.append(a)
        traced.append(b)
    overhead = median(traced) - median(plain) if traced else float("nan")
    if isinstance(w, Gate):
        data = json.loads(out_file.read_text())
        metrics, absent = data["metrics"], data["absent"]
        metrics["trace.overhead_s"] = overhead
    else:
        metrics, absent = layer_metrics(tracer, import_s, overhead,
                                        median(output_bytes) if output_bytes else 0)
    metrics = {k: (v, UNITS[k]) for k, v in metrics.items()}
    metrics["peak_heap_mb"] = (peak / 1e6 if peak else float("nan"), "MB")
    return {
        "metrics": metrics,
        "absent": absent,
        "untraced_walls": plain,
        "traced_walls": traced,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kslogistic" / "__init__.py").is_file():
        print(f"error: no kslogistic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import kslogistic  # noqa: F401

    import_s = time.perf_counter() - t0

    workdir = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    w = WORKLOADS[args.workload](args.seed, workdir / "run")
    tally = Tally(w)
    try:
        if args.trace:
            detail = per_layer(w, args, tally, workdir, import_s)
        else:
            detail = end_to_end(w, args, tally, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in detail.pop("metrics").items()},
    }
    env = environment()
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, failures=tally.failures,
                  problems=tally.problems, **detail)
    path = results_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("environment: " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
