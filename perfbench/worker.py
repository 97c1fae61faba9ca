"""One benchmark run inside a fresh interpreter.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --out-dir DIR

Runs ops one at a time until the next op would end past the window, checks
every output, and prints one JSON record as its last stdout line. With
--trace 1 it repeats the seed's first op, alternating an untraced and a
traced execution, so the traced counts repeat exactly and the pair gives
the tracing overhead; the spans are written to DIR when the run ends.
"""
import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

from tracer import COUNT_METRICS, Tracer
from workloads import WORKLOADS


# warm-up ops run at this size, outside the window
WARM_UP_N = 6
# a first Hermitian eigensolve this large starts OpenBLAS's threads
WARM_UP_EIGH = 256


def _bytes_in(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def warm_up(workload, seed, out_dir):
    """One untimed small op, then one mid-size eigensolve.

    In a fresh process the first multi-threaded eigensolve costs about
    0.8 s more than later ones. Without this, the first op of every run
    pays it and op times depend on how many ops share the window.
    """
    import numpy as np
    tiny = workload.tiny(WARM_UP_N)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        tiny.run(next(tiny.inputs(seed)), workdir)
    a = np.random.default_rng(seed).normal(size=(WARM_UP_EIGH,) * 2)
    np.linalg.eigh(a + a.T)


class Loop:
    """Closed-loop op runner with a time window that opens after warm-up."""

    def __init__(self, workload, seed, seconds, out_dir):
        self.workload = workload
        self.seconds = seconds
        self.out_dir = out_dir
        warm_up(workload, seed, out_dir)
        self.start = time.perf_counter()
        self.attempted = 0
        self.problems = []
        self.failed = 0

    def op(self, value):
        """Run and check one op; returns (seconds, output bytes, output)."""
        self.attempted += 1
        with tempfile.TemporaryDirectory(dir=self.out_dir) as workdir:
            t0 = time.perf_counter()
            try:
                out = self.workload.run(value, workdir)
            except Exception as exc:  # a raising op is a failed op
                dt, out = time.perf_counter() - t0, None
                problems = [f"{type(exc).__name__}: {exc}"]
            else:
                dt = time.perf_counter() - t0
                problems = self.workload.check(value, out)
            written = _bytes_in(workdir)
        if problems:
            self.failed += 1
            self.problems.append({"input": value, "problems": problems})
        return dt, written, out

    def more(self, step_s):
        """True while one more step of step_s seconds fits the window."""
        elapsed = time.perf_counter() - self.start
        return elapsed + statistics.median(step_s) <= self.seconds


def tail(times):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it, or the maximum below eleven samples."""
    s = sorted(times)
    n = len(s)
    if n < 11:
        return s[-1], 100, 0
    return s[n - 11], 100 * (n - 10) // n, 10


def measure(workload, seed, seconds, out_dir):
    """Untraced run: end-to-end metrics of the seed's op sequence."""
    from idmps import experiments
    points = [0]
    point = experiments.block_state_spin_basis

    def counted_point(*args, **kwargs):
        # a bare counter, no clock: the point count behind points_per_s
        points[0] += 1
        return point(*args, **kwargs)

    loop = Loop(workload, seed, seconds, out_dir)
    times, op_points, margins = [], [], []
    experiments.block_state_spin_basis = counted_point
    try:
        for value in workload.inputs(seed):
            before = points[0]
            dt, _, out = loop.op(value)
            times.append(dt)
            op_points.append(points[0] - before)
            if out is not None:
                margins += workload.margins(out)
            if not loop.more(times):
                break
    finally:
        experiments.block_state_spin_basis = point
    value, pct, beyond = tail(times)
    return loop, {
        "op_s_p50": statistics.median(times),
        "op_s_tail": value,
        "points_per_s": sum(op_points) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }, {
        "ops": len(times), "op_s": times, "op_points": op_points,
        "tail_percentile": pct, "tail_beyond": beyond,
        "energy_margin": statistics.median(margins) if margins else None,
    }


def measure_traced(workload, seed, seconds, out_dir):
    """Traced run: per-layer metrics of the seed's first op."""
    value = next(workload.inputs(seed))
    loop = Loop(workload, seed, seconds, out_dir)
    tracer = Tracer()
    plain, traced, per_op, margins = [], [], [], []
    while True:
        dt, _, _ = loop.op(value)
        plain.append(dt)
        tracer.install()
        try:
            dt, written, out = loop.op(value)
        finally:
            tracer.uninstall()
        traced.append(dt)
        metrics = tracer.op_metrics(tracer.op)
        metrics["cli.bytes_written"] = written
        per_op.append(metrics)
        if out is not None:
            margins = workload.margins(out)
        tracer.op += 1
        if not loop.more([a + b for a, b in zip(plain, traced)]):
            break
    metrics = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    # every traced op has the same input, so their counts must agree
    counts_stable = all(m[k] == per_op[0][k] for m in per_op
                        for k in COUNT_METRICS)
    if margins:
        metrics["experiments.energy_margin"] = statistics.median(margins)
    metrics["trace.overhead_share"] = sum(traced) / sum(plain) - 1.0
    span_file = f"spans-{workload.name}-{seed}.jsonl"
    tracer.write(os.path.join(out_dir, span_file))
    return loop, metrics, {
        "ops": len(traced), "input": value, "op_s_traced": traced,
        "op_s_untraced": plain, "counts_stable": counts_stable,
        "spans": len(tracer.spans), "span_file": span_file,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    import numpy
    import scipy
    os.makedirs(args.out_dir, exist_ok=True)
    run = measure_traced if args.trace else measure
    loop, metrics, detail = run(WORKLOADS[args.workload], args.seed,
                                args.seconds, args.out_dir)
    record = {
        "attempted": loop.attempted, "failed": loop.failed,
        "problems": loop.problems, "metrics": metrics, "detail": detail,
        "env": {"python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__,
                "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")},
    }
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
