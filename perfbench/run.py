"""Benchmark entry point.

    python3 perfbench/run.py --workload quote|sweep|validate --seed N \
        --seconds S --trace 0|1

Runs from the root of a robustmm checkout and imports the package from
its src/ directory. The workload runs in a worker process of its own
(worker.py). With --trace 0 the last line of stdout is the end-to-end
result: latency, throughput, CPU time per operation, peak memory and
set-up time, the last as the median over SETUPS fresh processes. With
--trace 1 it is the per-layer result of a traced run instead; its
timings are inflated by the tracing and never feed end-to-end numbers.
"""
import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 3
# A stuck worker is stopped rather than left running past the run's budget:
# each set-up may take SETUP_LIMIT_S, and the timed process its --seconds,
# up to one more round's overshoot and its checks within RUN_MARGIN_S.
SETUP_LIMIT_S = 20
RUN_MARGIN_S = 40


def start_worker(args, *extra):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    return subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)


def wait_ready(proc, started, deadline):
    """Seconds from process start to its "ready" line, or None."""
    readable, _, _ = select.select([proc.stdout], [], [], max(deadline - time.perf_counter(), 0.0))
    if not readable or proc.stdout.readline().strip() != "ready":
        return None
    return time.perf_counter() - started


def finish(proc, deadline):
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None
    return out if proc.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("quote", "sweep", "validate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "robustmm" / "__init__.py").is_file():
        print(f"no robustmm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + SETUPS * SETUP_LIMIT_S + args.seconds + RUN_MARGIN_S
    setups = []
    for extra in [("--setup-only",)] * (SETUPS - 1 if args.trace == 0 else 0) + [()]:
        started = time.perf_counter()
        proc = start_worker(args, *extra)
        setups.append(wait_ready(proc, started, deadline))
        out = finish(proc, deadline)
        if out is None or setups[-1] is None:
            print(f"worker failed during {'set-up' if extra else 'the run'}", file=sys.stderr)
            return 1

    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    detail = {k: result.pop(k) for k in list(result) if k not in
              ("correct", "attempted", "failed", "metrics")}
    if args.trace == 0:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        detail["setups_s"] = setups
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
