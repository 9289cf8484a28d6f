import dataclasses
import importlib
import importlib.util
import inspect
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
