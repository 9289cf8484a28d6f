"""One workload in its own process: set up, then the timed rounds.

Started by run.py. It prints "ready" when set-up is done, so run.py can
time set-up from process start, and with --setup-only it stops there.
Otherwise it runs whole rounds of the workload's operations, closed loop
with one client, until the timed phase has lasted --seconds, checks every
output and prints one JSON line with its measurements.
"""
import os

# OpenBLAS starts its threads when numpy loads; pin it to one first.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import robustmm  # noqa: E402
import robustmm.cli  # noqa: E402
import workloads as wl  # noqa: E402
from spans import PER_LAYER, Tracer  # noqa: E402

ROUNDS = {"quote": wl.quote_round, "sweep": wl.sweep_round, "validate": wl.validate_round}


def run_operation(op, out):
    """One in-process robustmm command; returns its exit code, or None if
    it raised. Its console output is kept off the benchmark's stdout."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return robustmm.cli.main(op.argv(out))
        except Exception:  # a traceback is a failed operation, not a crash
            return None


def check_outputs(workload, ops, out_name, seed):
    """Errors found in the first round's outputs, one list per operation."""
    rng = np.random.default_rng([seed, 99])
    errors = []
    for op in ops:
        out = op.directory / out_name
        if workload == "quote":
            try:
                policy = wl.read_policy_csv(out / "policy.csv")
            except ValueError as e:
                errors.append(f"{op.directory.name}: {e}")
                continue
            found = wl.check_quote(op, wl.load_json(out / "solution.json"), policy, rng)
        elif workload == "sweep":
            found = wl.check_sweep(op, wl.read_shift_csv(out / "shift.csv"),
                                   wl.solve_publicly(op))
        else:
            found = wl.check_validate(op, wl.load_json(out / "validation.json"))
        errors += [f"{op.directory.name}: {e}" for e in found]
    return errors


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(robustmm.__file__).resolve().parents:
        print(f"robustmm was imported from {robustmm.__file__}, not {src}", file=sys.stderr)
        return 2

    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work):
    ops = ROUNDS[args.workload](args.seed, work)
    warm = run_operation(ops[0], work / "warmup")
    print("ready", flush=True)
    if args.setup_only:
        return 0 if warm == 0 else 1

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    latencies, codes, digests, mismatched = [], [], {}, []
    phase = cpu = 0.0
    rounds = 0
    while rounds == 0 or phase < args.seconds:
        out_name = "out1" if rounds == 0 else "out"
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for op in ops:
            if tracer:
                tracer.op = len(latencies)
                span = tracer.open("cli.main")
            t0 = time.perf_counter()
            codes.append(run_operation(op, op.directory / out_name))
            latencies.append(time.perf_counter() - t0)
            if tracer:
                tracer.close(span)
        phase += time.perf_counter() - wall0
        cpu += time.process_time() - cpu0
        rounds += 1
        # untimed: a repeated operation must write the bytes of its first run
        for op, code in zip(ops, codes[-len(ops):]):
            if code != 0:
                continue
            digest = wl.output_digest(op.directory / out_name)
            if digests.setdefault(op.directory.name, digest) != digest:
                mismatched.append(f"{op.directory.name}: round {rounds} output differs")
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    failed = sum(1 for c in codes if c != 0)
    first_ok = [op for op, c in zip(ops, codes) if c == 0]
    errors = mismatched + check_outputs(args.workload, first_ok, "out1", args.seed)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    if tracer:
        tracer.write(BENCH / "results" / f"trace-{args.workload}-seed{args.seed}.tsv")
        values = tracer.metrics()
        metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
        extra = {"layer_shares": tracer.layer_shares()}
    else:
        done = len(codes) - failed
        metrics = {
            "latency_p50_s": (statistics.median(latencies), "s"),
            "throughput_ops_per_s": (done / phase, "1/s"),
            "cpu_s_per_op": (cpu / len(codes), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        extra = {"rounds": rounds, "ops_per_round": len(ops)}
    print(json.dumps({
        "correct": not errors,
        "attempted": len(codes),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **extra,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
