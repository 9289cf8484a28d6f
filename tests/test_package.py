import ast
import collections
import dataclasses
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

import robustmm
import robustmm.cli
import robustmm.config
import robustmm.oracle
import robustmm.validation

FIXTURES = Path(__file__).parent / "fixtures"

# public names that no fixture command calls, each with the reason it stays in src/
SPEC_SUGAR = "spec sugar: builds a FunctionSpec in code, where a config parses one"
UNREACHED = {"constant": SPEC_SUGAR, "affine": SPEC_SUGAR, "exp_decay": SPEC_SUGAR,
             "expected_reward": "the quadrature benchmark that the simulator and guarantee checks compare against"}
# benchmark doors that no fixture command calls through, each with the reason it is wrapped
UNCALLED_DOORS = {("robustmm.policy", "theorem_beta_envelope"):
                  "no command calls it through policy; the door moves to robustmm.validation with ROADMAP item 1"}


def test_public_names_resolve_and_none_is_a_module():
    assert len(set(robustmm.__all__)) == len(robustmm.__all__)
    for name in robustmm.__all__:
        assert not isinstance(getattr(robustmm, name), types.ModuleType), name


def test_benchmark_doors_resolve(tmp_path, monkeypatch):
    # the benchmark's trace mode wraps each (module, attribute) it lists; each
    # is a callable that the four fixture commands call through, unless
    # UNCALLED_DOORS says why not
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    calls = collections.Counter()

    def counted(door, fn):
        def call(*args, **kwargs):
            calls[door] += 1
            return fn(*args, **kwargs)
        return call

    for door in spans.WRAPPED:
        module = importlib.import_module(door[0])
        fn = getattr(module, door[1], None)
        assert callable(fn), door
        monkeypatch.setattr(module, door[1], counted(door, fn))
    for command in ("solve", "radius", "simulate", "validate"):
        args = [command, "--config", str(FIXTURES / f"{command}.cfg"), "--out", str(tmp_path / command)]
        assert robustmm.cli.main(args) == 0
    assert sorted(door for door in spans.WRAPPED if not calls[door]) == sorted(UNCALLED_DOORS)


def test_benchmark_reads_policy_csv_exactly(tmp_path, monkeypatch):
    # the benchmark's quote check parses policy.csv with its own reader: a
    # format that it cannot read, or reads off the solver's doubles, fails here
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))  # workloads imports references by name
    spec = importlib.util.spec_from_file_location("perfbench_workloads", bench / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    config = Path(__file__).parent / "fixtures" / "solve.cfg"
    assert robustmm.cli.main(["solve", "--config", str(config), "--out", str(tmp_path)]) == 0
    cfg = robustmm.config.parse_config(config)
    model, domain = cfg.require_model()
    summaries = tuple(robustmm.empirical_moments(robustmm.read_sample_csv(path, side))
                      for path, side in zip(cfg.require_samples(), ("buy", "sell")))
    policy = robustmm.build_policy(model, domain, robustmm.solve_inner(model, domain, summaries, cfg.delta))
    nodes, n = domain.axis_nodes, domain.grid_n
    want = np.column_stack([np.repeat(nodes, n), np.tile(nodes, n), policy.density.ravel()])
    assert np.array_equal(workloads.read_policy_csv(tmp_path / "policy.csv"), want)


def test_benchmark_door_to_the_oracle_is_the_oracle():
    # the benchmark counts oracle searches at robustmm.validation's door
    assert robustmm.validation.moment_range_search is robustmm.oracle.moment_range_search


def test_benchmark_reads_solve_inner_by_position_and_field():
    # the benchmark passes summaries and delta by position, reads back the
    # moments, objective and iterations, and notes the path from args[2:4]
    params = list(inspect.signature(robustmm.solve_inner).parameters)
    assert params[:4] == ["model", "domain", "summaries", "delta"]
    fields = {f.name for f in dataclasses.fields(robustmm.RobustSolution)}
    assert {"alpha_star_plus", "alpha_star_minus", "beta_star_plus", "beta_star_minus",
            "objective", "iterations"} <= fields


def test_numpy_is_the_one_runtime_dependency():
    # in a fresh interpreter, every top-level package that importing robustmm
    # and its CLI loads from outside the standard library is numpy or robustmm
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import robustmm, robustmm.cli\n"
            "print(*sorted({n.partition('.')[0] for n in set(sys.modules) - before} - sys.stdlib_module_names))")
    src = str(Path(robustmm.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["numpy", "robustmm"]


def test_one_module_parametrizes_the_moment_set():
    # moments.MomentSet owns the path a = alpha_n + r sin t, sd = sd_n + r cos t
    # and the least of g.x over it; no other module takes a sine or an angle
    for path in sorted(Path(robustmm.__file__).parent.glob("*.py")):
        if path.name == "moments.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
                assert name not in ("sin", "cos", "asin", "atan2"), (path.name, node.lineno)


def test_one_module_reads_input_files():
    # moments.read_text_lines decodes every config and sample file; no other
    # module reads a file, or opens one except to write it
    for path in sorted(Path(robustmm.__file__).parent.glob("*.py")):
        if path.name == "moments.py":
            continue
        calls = [node for node in ast.walk(ast.parse(path.read_text(), str(path))) if isinstance(node, ast.Call)]
        for node in calls:
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
            assert name not in ("read_text", "read_bytes"), (path.name, node.lineno)
            if name in ("open", "fdopen"):
                modes = [arg.value for arg in [*node.args, *(kw.value for kw in node.keywords if kw.arg == "mode")]
                         if isinstance(arg, ast.Constant) and isinstance(arg.value, str)]
                assert any(set(mode) & set("wax") and "+" not in mode for mode in modes), (path.name, node.lineno)


def test_fixture_commands_reach_every_public_function(tmp_path):
    # src/ holds what the commands run: a public function, or a method, property or
    # cached property of a public class, that none of the four fixture commands
    # calls is a test-only route, unless UNREACHED says why it stays
    wanted = {}
    for name in robustmm.__all__:
        obj = getattr(robustmm, name)
        for attr, value in vars(obj).items() if inspect.isclass(obj) else [("", obj)]:
            fn = getattr(value, "__func__", getattr(value, "fget", getattr(value, "func", value)))
            if not attr.startswith("_") and inspect.isfunction(fn):
                wanted[f"{name}.{attr}" if attr else name] = fn.__code__
    reached = set()
    sys.setprofile(lambda frame, event, arg: reached.add(frame.f_code) if event == "call" else None)
    try:
        for command in ("solve", "radius", "simulate", "validate"):
            args = [command, "--config", str(FIXTURES / f"{command}.cfg"), "--out", str(tmp_path / command)]
            assert robustmm.cli.main(args) == 0
    finally:
        sys.setprofile(None)
    assert sorted(name for name, code in wanted.items() if code not in reached) == sorted(UNREACHED)
