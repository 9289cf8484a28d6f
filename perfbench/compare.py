"""Compare two sets of benchmark results.

    python3 perfbench/compare.py SET_A SET_B

Each set is a directory of result files written by collect.py. For each
workload and metric the table gives each set's median and quartiles,
the spread (quartile distance over median) of each set, and the change
of B's median against A's. A row agrees when the change is within the
metric's bound from BENCHMARK.json in either direction; the failed share
of operations must be identical. Per-layer metrics have no bound and
are shown for reading only. Exits 1 when any bounded row disagrees.
"""
import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path):
    """{workload: {metric: [values]}} and {workload: [(failed, attempted)]}."""
    values = defaultdict(lambda: defaultdict(list))
    counts = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())["result"]
        workload = path.name.split("-seed", 1)[0]
        counts[workload].append((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            values[workload][name].append(metric["value"])
    return values, counts


def summary(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("set_a", type=Path)
    parser.add_argument("set_b", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    a_values, a_counts = load(args.set_a)
    b_values, b_counts = load(args.set_b)

    ok = True
    header = (f"{'workload':9s} {'metric':36s} {'n':>5s} {'A q1':>11s} {'A median':>11s} "
              f"{'A q3':>11s} {'A spread':>8s} {'B q1':>11s} {'B median':>11s} {'B q3':>11s} "
              f"{'B spread':>8s} {'change':>8s} {'bound':>6s}  verdict")
    print(header)
    for workload in sorted(set(a_values) | set(b_values)):
        for name in sorted(set(a_values[workload]) | set(b_values[workload])):
            a, b = a_values[workload].get(name), b_values[workload].get(name)
            if not a or not b:
                print(f"{workload:9s} {name:36s} missing from set {'A' if not a else 'B'}")
                ok = ok and name not in bounds
                continue
            qa, qb = summary(a), summary(b)
            spread_a = (qa[2] - qa[0]) / qa[1] if qa[1] else 0.0
            spread_b = (qb[2] - qb[0]) / qb[1] if qb[1] else 0.0
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            bound = bounds.get(name)
            if bound is None:
                verdict, bound_text = "per-layer", ""
            else:
                agree = abs(change) <= bound
                ok = ok and agree
                verdict, bound_text = ("agree" if agree else "DISAGREE"), f"{bound:.2f}"
            print(f"{workload:9s} {name:36s} {len(a):2d}/{len(b):<2d} {qa[0]:11.5g} {qa[1]:11.5g} "
                  f"{qa[2]:11.5g} {spread_a:8.2%} {qb[0]:11.5g} {qb[1]:11.5g} {qb[2]:11.5g} "
                  f"{spread_b:8.2%} {change:+8.2%} {bound_text:>6s}  {verdict}")
        share_a = {f / n for f, n in a_counts[workload]}
        share_b = {f / n for f, n in b_counts[workload]}
        same = len(share_a | share_b) == 1
        ok = ok and same
        print(f"{workload:9s} failed share A {sorted(share_a)} B {sorted(share_b)}: "
              f"{'identical' if same else 'DIFFERENT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
