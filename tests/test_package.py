import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
import types
from pathlib import Path

import robustmm
import robustmm.oracle
import robustmm.validation


def test_public_names_resolve_and_none_is_a_module():
    assert len(set(robustmm.__all__)) == len(robustmm.__all__)
    for name in robustmm.__all__:
        assert not isinstance(getattr(robustmm, name), types.ModuleType), name


def test_benchmark_doors_resolve():
    # the benchmark's trace mode wraps each (module, attribute) it lists
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    for module, attr in spans.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


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
