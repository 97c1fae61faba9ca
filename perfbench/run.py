"""idmps benchmark: radius scans and a CLI phase sweep, end to end and by
layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--record FILE]

The first form is one run: it times the interpreter set-up, starts one
fresh interpreter that runs the workload's ops for S seconds, checks every
output, and prints a JSON result as its last stdout line. With --trace 0 the
result holds the end-to-end metrics, with --trace 1 the per-layer ones.
--all runs every workload untraced and twice traced, prints every metric
with its unit and sample count, and checks that the traced counts repeat.
"""
import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracer import COUNT_METRICS, LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# fresh interpreters timed per run; setup_s is their median
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# every run must end within this, set-up included
RUN_LIMIT_S = 175
E2E_UNITS = {"setup_s": "s", "op_s_p50": "s", "op_s_tail": "s",
             "points_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env():
    """Environment of every child: idmps from this checkout, BLAS threads
    capped at the cores this process may use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = cores
    return env


def setup_seconds(env):
    """Median time from starting an interpreter to `import idmps` done."""
    code = ("import sys, idmps; sys.stdout.write(idmps.__file__ + '\\n'); "
            "sys.stdout.flush()")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code], cwd=ROOT,
                                env=env, stdout=subprocess.PIPE)
        try:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        PROBE_TIMEOUT_S)
            line = proc.stdout.readline().decode() if ready else ""
            t1 = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or not line.startswith(SRC + os.sep):
            raise BenchError(f"cannot import idmps from {SRC}")
        times.append(t1 - t0)
    return statistics.median(times)


def git_sha():
    """HEAD of the checkout's git directory, or None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except (FileNotFoundError, NotADirectoryError):
        pass
    return None


def one_run(workload, seed, seconds, trace):
    """Set-up probes plus one worker run; returns the run record."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    env = child_env()
    setup = setup_seconds(env)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", OUT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=deadline - time.perf_counter())
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within {RUN_LIMIT_S} s")
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {workload} exited {proc.returncode}")
    record = json.loads(lines[-1])
    if not trace:
        record["metrics"]["setup_s"] = setup
    record["detail"]["setup_s"] = setup
    record.update(workload=workload, seed=seed, seconds=seconds, trace=trace)
    record["env"].update(machine=platform.machine(),
                         platform=platform.platform(),
                         cpus=len(os.sched_getaffinity(0)), git_sha=git_sha())
    return record


def unit(name):
    return E2E_UNITS.get(name) or LAYER_METRICS[name][0]


def result_line(record):
    """The JSON result: every metric with its unit."""
    metrics = {k: {"value": v, "unit": unit(k)}
               for k, v in sorted(record["metrics"].items())}
    return json.dumps({"correct": record["failed"] == 0,
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def report(record):
    """Human-readable lines for one run."""
    d = record["detail"]
    head = (f"{record['workload']} seed={record['seed']} "
            f"trace={record['trace']} ops={d['ops']} "
            f"attempted={record['attempted']} failed={record['failed']} "
            f"fail_share={record['failed'] / record['attempted']:.3g}")
    env = dict(record["env"], seed=record["seed"], ops=d["ops"],
               seconds=record["seconds"])
    lines = [head, "  env " + json.dumps(env, sort_keys=True)]
    for name, value in sorted(record["metrics"].items()):
        note = ""
        if name == "op_s_p50":
            note = f"  (n={d['ops']})"
        elif name == "op_s_tail":
            note = (f"  (p{d['tail_percentile']}, {d['tail_beyond']} beyond, "
                    f"n={d['ops']})")
        elif name == "setup_s":
            note = f"  (median of {SETUP_PROBES})"
        lines.append(f"  {name:32s} {value:.6g} {unit(name)}"
                     f"{note}")
    if d.get("energy_margin") is not None:
        lines.append(f"  {'energy_margin':32s} {d['energy_margin']:.6g} "
                     f"energy  (median E_opt - E0 over the run's scans)")
    for p in record["problems"][:5]:
        lines.append(f"  FAILED {p}")
    return lines


def run_all(seed, seconds, record_path):
    ok = True
    records = []
    for name in WORKLOADS:
        plain = one_run(name, seed, seconds, 0)
        traced = [one_run(name, seed, seconds, 1) for _ in range(2)]
        repeat = {k: [t["metrics"][k] for t in traced] for k in COUNT_METRICS}
        same = (all(a == b for a, b in repeat.values())
                and all(t["detail"]["counts_stable"] for t in traced))
        for rec in (plain, traced[0]):
            print("\n".join(report(rec)), flush=True)
        print(f"  counts repeat across two traced runs: {same}", flush=True)
        ok = ok and same and all(r["failed"] == 0 for r in [plain, *traced])
        records.append({"workload": name, "why": WORKLOADS[name].why,
                        "untraced": plain, "traced": traced,
                        "counts_repeat": same})
    if record_path:
        with open(record_path, "w") as fh:
            json.dump({"seed": seed, "seconds": seconds, "runs": records},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 3


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="write the --all records to this file")
    args = ap.parse_args(argv)
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload or --all")
    try:
        if args.all:
            return run_all(args.seed, args.seconds, args.record)
        record = one_run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report(record)))
    print(result_line(record))
    return 0 if record["failed"] == 0 else 3


if __name__ == "__main__":
    sys.exit(main())
