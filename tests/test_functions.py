import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from robustmm import FunctionSpec, affine, constant, exp_decay, parse_function_spec
from robustmm.functions import _ARITY


def test_constant_scalar_and_array():
    f = constant(0.7)
    assert f(0.0) == 0.7
    assert f(123.4) == 0.7
    out = f(np.linspace(0, 1, 5))
    assert out.shape == (5,)
    assert np.all(out == 0.7)


def test_affine_values():
    f = affine(2.0, -0.5)
    assert f(0.0) == 2.0
    assert f(1.0) == 1.5
    assert np.allclose(f(np.array([0.0, 2.0])), [2.0, 1.0])


def test_exp_decay_values():
    f = exp_decay(3.0, 2.0)
    assert f(0.0) == 3.0
    assert f(1.0) == pytest.approx(3.0 * np.exp(-2.0), rel=1e-15)


def test_parse_round_trip():
    for text in ("constant(0.5)", "affine(1.0, -0.25)", "exp_decay(2.0, 1.5)"):
        spec = parse_function_spec(text)
        again = parse_function_spec(str(spec))
        assert again == spec


def test_parse_whitespace_tolerant():
    spec = parse_function_spec("  exp_decay( 2.0 ,1.5 )  ")
    assert spec.kind == "exp_decay"
    assert spec.params == (2.0, 1.5)


def test_parse_rejects_unknown_kind():
    with pytest.raises(ValueError):
        parse_function_spec("sigmoid(1.0)")


def test_parse_rejects_wrong_arity():
    with pytest.raises(ValueError):
        parse_function_spec("constant(1.0, 2.0)")
    with pytest.raises(ValueError):
        parse_function_spec("affine(1.0)")


def test_parse_rejects_garbage():
    for text in ("", "constant", "constant(", "constant(x)"):
        with pytest.raises(ValueError):
            parse_function_spec(text)


def test_spec_rejects_non_finite_params():
    with pytest.raises(ValueError):
        FunctionSpec("constant", (float("nan"),))
    with pytest.raises(ValueError):
        FunctionSpec("affine", (1.0, float("inf")))


@st.composite
def specs(draw):
    kind = draw(st.sampled_from(sorted(_ARITY)))
    return FunctionSpec(kind, tuple(draw(st.floats(-50.0, 50.0)) for _ in range(_ARITY[kind])))


@given(spec=specs(), end=st.floats(1e-3, 10.0))
def test_every_kind_is_monotone(spec, end):
    # validate_model_on_domain checks a curve at the two ends of [0, eps_max] only
    ends = spec(np.array([0.0, end]))
    assume(np.all(np.isfinite(ends)))
    vals = spec(np.linspace(0.0, end, 4097))
    slack = 4 * np.spacing(np.max(np.abs(ends)))
    assert np.all(vals >= np.min(ends) - slack) and np.all(vals <= np.max(ends) + slack)
