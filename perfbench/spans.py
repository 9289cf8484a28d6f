"""Spans around robustmm's public functions, and the per-layer metrics.

The tracer replaces each public function at every module attribute the
program calls it through (robustmm.cli.solve_inner and
robustmm.simulator.solve_inner are two doors into one function), so no
line of the program changes. Spans stay in memory as parallel lists and
are written once, after the timed phase. A layer is the robustmm module
that defines the function.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict
from pathlib import Path

# (module the program calls through, attribute)
WRAPPED = (
    ("robustmm.cli", "parse_config"),
    ("robustmm.cli", "read_sample_csv"),
    ("robustmm.cli", "select_radius"),
    ("robustmm.cli", "solve_inner"),
    ("robustmm.cli", "build_policy"),
    ("robustmm.cli", "shift_experiment"),
    ("robustmm.cli", "run_validation"),
    ("robustmm.cli", "format_table"),
    ("robustmm.simulator", "solve_inner"),
    ("robustmm.simulator", "build_policy"),
    ("robustmm.simulator", "simulate_batch"),
    ("robustmm.simulator", "sample_policy"),
    ("robustmm.policy", "theorem_beta_envelope"),
    ("robustmm.profile", "robust_profile"),
    ("robustmm.validation", "robust_profile"),
    ("robustmm.validation", "moment_range_search"),
    ("robustmm.validation", "min_cost_given_moments"),
)

ROOT_SPAN = "cli.main"

# (name, unit, better); every metric is reported on every workload.
PER_LAYER = (
    ("cli.self_s_per_op", "s", "lower"),
    ("config.parse_s_per_op", "s", "lower"),
    ("moments.read_csv_s_per_op", "s", "lower"),
    ("moments.envelope_calls_per_op", "count", "lower"),
    ("moments.envelope_s_per_op", "s", "lower"),
    ("profile.select_radius_s_per_call", "s", "lower"),
    ("profile.robust_profile_calls_per_op", "count", "lower"),
    ("policy.solve_certified_s_per_call", "s", "lower"),
    ("policy.solve_multistart_s_per_call", "s", "lower"),
    ("policy.solve_iterations_per_call", "count", "lower"),
    ("policy.build_policy_s_per_call", "s", "lower"),
    ("policy.sample_policy_s_per_call", "s", "lower"),
    ("simulator.simulate_batch_s_per_call", "s", "lower"),
    ("simulator.episodes_per_s", "1/s", "higher"),
    ("oracle.range_search_s_per_call", "s", "lower"),
    ("oracle.range_search_calls_per_op", "count", "lower"),
    ("oracle.min_cost_s_per_call", "s", "lower"),
    ("validation.self_s_per_op", "s", "lower"),
)


def _solve_note(args, kwargs, result):
    """Which path solve_inner took, read from its inputs, and its iterations."""
    from robustmm.policy import concavity_check

    summaries, delta = args[2], args[3]
    if delta == 0.0:
        path = "zero"
    elif concavity_check(summaries, delta):
        path = "certified"
    else:
        path = "multistart"
    return f"{path}:{result.iterations}"


def _batch_note(args, kwargs, result):
    return str(args[3] if len(args) > 3 else kwargs["episodes"])


_NOTES = {"policy.solve_inner": _solve_note, "simulator.simulate_batch": _batch_note}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.notes: dict[int, str] = {}
        self.stack: list[int] = []
        self.op = -1
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def install(self) -> None:
        for module_name, attr in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, _NOTES.get(name)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name, note):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                self.notes[idx] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span\top\tparent\tname\tstart_s\tend_s\tnote\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{self.ops[i]}\t{self.parents[i]}\t{name}\t"
                         f"{self.starts[i]!r}\t{self.ends[i]!r}\t{self.notes.get(i, '')}\n")

    def self_times(self) -> list[float]:
        """Duration of each span less the time its child spans cover."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own

    def layer_shares(self) -> dict[str, float]:
        """Each layer's self time as a share of all timed operation time."""
        own = self.self_times()
        total = 0.0
        by_layer: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            if self.ops[i] < 0:
                continue
            by_layer[name.split(".", 1)[0]] += own[i]
            if name == ROOT_SPAN:
                total += self.ends[i] - self.starts[i]
        return {layer: value / total for layer, value in sorted(by_layer.items())}

    def metrics(self) -> dict[str, float]:
        """The PER_LAYER metrics over the timed operations (op >= 0)."""
        own = self.self_times()
        count: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_total: dict[str, float] = defaultdict(float)
        ops = set()
        episodes = 0
        iterations = 0
        for i, name in enumerate(self.names):
            if self.ops[i] < 0:
                continue
            ops.add(self.ops[i])
            key = name
            if name == "policy.solve_inner":
                path, its = self.notes[i].split(":")
                iterations += int(its)
                key = f"{name}.{path}"
                count[name] += 1
            elif name == "simulator.simulate_batch":
                episodes += int(self.notes[i])
            count[key] += 1
            total[key] += self.ends[i] - self.starts[i]
            self_total[name.split(".", 1)[0]] += own[i]
        n_ops = max(len(ops), 1)

        def per_call(key):
            return total[key] / count[key] if count[key] else 0.0

        batch_s = total["simulator.simulate_batch"]
        return {
            "cli.self_s_per_op": self_total["cli"] / n_ops,
            "config.parse_s_per_op": total["config.parse_config"] / n_ops,
            "moments.read_csv_s_per_op": total["moments.read_sample_csv"] / n_ops,
            "moments.envelope_calls_per_op": count["moments.theorem_beta_envelope"] / n_ops,
            "moments.envelope_s_per_op": total["moments.theorem_beta_envelope"] / n_ops,
            "profile.select_radius_s_per_call": per_call("profile.select_radius"),
            "profile.robust_profile_calls_per_op": count["profile.robust_profile"] / n_ops,
            "policy.solve_certified_s_per_call": per_call("policy.solve_inner.certified"),
            "policy.solve_multistart_s_per_call": per_call("policy.solve_inner.multistart"),
            "policy.solve_iterations_per_call": (iterations / count["policy.solve_inner"]
                                                 if count["policy.solve_inner"] else 0.0),
            "policy.build_policy_s_per_call": per_call("policy.build_policy"),
            "policy.sample_policy_s_per_call": per_call("policy.sample_policy"),
            "simulator.simulate_batch_s_per_call": per_call("simulator.simulate_batch"),
            "simulator.episodes_per_s": episodes / batch_s if batch_s > 0 else 0.0,
            "oracle.range_search_s_per_call": per_call("oracle.moment_range_search"),
            "oracle.range_search_calls_per_op": count["oracle.moment_range_search"] / n_ops,
            "oracle.min_cost_s_per_call": per_call("oracle.min_cost_given_moments"),
            "validation.self_s_per_op": self_total["validation"] / n_ops,
        }
