"""Run the benchmark over several seeds and keep each run's result.

    python3 perfbench/collect.py --out perfbench/results/set-a [--seeds 1-10] [--trace 0]

Runs perfbench/run.py once per seed on every workload of BENCHMARK.json,
one run at a time, always with the run length BENCHMARK.json sets, and
writes each run's two result lines to <out>/<workload>-seed<N>-trace<T>.json.
compare.py reads them.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            name = f"{workload}-seed{seed}-trace{args.trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            detail = json.loads(lines[-2].removeprefix("detail "))
            result = json.loads(lines[-1])
            (args.out / f"{name}.json").write_text(
                json.dumps({"result": result, "detail": detail}, indent=1) + "\n")
            values = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{name}: correct {result['correct']} {result['failed']}/"
                  f"{result['attempted']} failed; {values}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
