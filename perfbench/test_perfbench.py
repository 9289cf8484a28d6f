"""Tests of the benchmark itself: the references against hand-worked
values, every output check against a corrupted output, and the span
arithmetic of the tracer.

    python3 -m pytest perfbench
"""
import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import references as ref  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

ZERO = ("constant", (0.0,))


def flat_model(**overrides):
    model = {"S": 5.0, "Q": 1.0, "eta": 0.5, "gamma": 2.0,
             "f_plus": ZERO, "f_minus": ZERO, "h_plus": ZERO, "h_minus": ZERO}
    model.update(overrides)
    return model


def test_envelope_hand_values():
    # alpha_n = 1, var = 0.04, delta = 0.01
    assert ref.envelope(1.0, 0.04, 0.01, 1.0) == pytest.approx((0.2 + 0.1) ** 2 + 1.0, rel=1e-15)
    assert ref.envelope(1.0, 0.04, 0.01, 1.1) == pytest.approx(0.2 ** 2 + 1.21, rel=1e-15)
    assert ref.envelope(1.0, 0.04, 0.01, 1.06) == pytest.approx(0.28 ** 2 + 1.06 ** 2, rel=1e-14)


def test_gibbs_exponent_hand_value():
    # C = 1, A = B = 5: (5 - 1) - (5 - 1) - 0.5 (2 - 2 + 2) + (1 - 1) - 0.5 = -1.5
    model = flat_model(f_plus=("constant", (0.2,)), f_minus=("constant", (0.2,)),
                       h_plus=("constant", (1.0,)), h_minus=("constant", (1.0,)))
    grid = ref.GibbsGrid(model, 0.5, 17)
    assert grid.exponent(1.0, 1.0, 2.0, 2.0)[0, 0] == pytest.approx(-1.5 / 2.0, rel=1e-15)


def test_trapezoid_mass_of_a_flat_integrand():
    # exponent 0 everywhere: integral eps_max^2, density 1 / eps_max^2
    grid = ref.GibbsGrid(flat_model(Q=0.0), 0.5, 17)
    assert grid.objective(0.3, 0.2, 0.5, 0.5) == pytest.approx(-2.0 * 0.25, rel=1e-14)
    assert np.allclose(grid.density(0.3, 0.2, 0.5, 0.5), 4.0, rtol=1e-14)
    assert float(np.sum(grid.hi - grid.lo)) == pytest.approx(0.5, rel=1e-15)
    assert np.allclose(grid.hi - grid.lo, grid.w, rtol=1e-12)


def uniform_cells(grid, eps_max):
    return np.outer(grid.hi - grid.lo, grid.hi - grid.lo) / eps_max ** 2


def test_expected_objective_with_fixed_fills():
    # h = 0, f = (0.2, 0.1): 0.2 (5 + 0.25) - 0.1 (5 - 0.25) - 0.5 (1 + 0.1)^2 = -0.03
    model = flat_model(f_plus=("constant", (0.2,)), f_minus=("constant", (0.1,)))
    grid = ref.GibbsGrid(model, 0.5, 17)
    got = ref.expected_episode_objective(grid, model, uniform_cells(grid, 0.5),
                                         (1.0, 1.0), (1.0, 1.0))
    assert got == pytest.approx(-0.03, abs=1e-13)


def test_expected_objective_with_random_fills():
    # h = 1, f = 0, E[e] = 0.2: cash 5.2 * 1 - 4.8 * 0.8 = 1.36;
    # E[(Q + xi+ - xi-)^2] = 0.25 + 1.5 + 1.0 + 1.0 - 0.8 - 1.6 = 1.35
    one = ("constant", (1.0,))
    model = flat_model(Q=0.5, eta=0.4, h_plus=one, h_minus=one)
    grid = ref.GibbsGrid(model, 0.4, 33)
    got = ref.expected_episode_objective(grid, model, uniform_cells(grid, 0.4),
                                         (1.0, 1.5), (0.8, 1.0))
    assert got == pytest.approx(1.36 - 0.4 * 1.35, abs=1e-13)


def test_shifted_law_moments():
    # mean 2, var 1 -> mean 2.5, second moment 2.5^2 + 4 * 1
    assert ref.shifted_law_moments([1.0, 3.0], 0.5, 2.0) == pytest.approx((2.5, 10.25))


def test_profile_hand_values():
    alpha_n, sigma_n = (1.0, 0.0), [[2.0, 0.0], [0.0, 1.0]]   # P = diag(0.5, 1), g = 0.5
    targets = ([1.0, 1.3, 1.0], [0.0, 0.0, 0.0], [2.0, 2.0, 2.5], [1.0, 1.0, 1.0])
    got = ref.profile_values(alpha_n, sigma_n, 10, targets)
    # empirical target: 0; mean moved by 0.3: 0.09 / (40 * 0.5);
    # D = diag(-0.5, 0): 0.0625 / 20 + 0.125 / 20 + 0.125 / 40
    assert got == pytest.approx([0.0, 0.0045, 0.0125], abs=1e-15)


def run_cli(op, out):
    import robustmm.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return robustmm.cli.main(op.argv(out))


@pytest.fixture(scope="module")
def quote_output(tmp_path_factory):
    op = wl.quote_round(11, tmp_path_factory.mktemp("quote"))[1]   # a radius.delta slot
    out = op.directory / "out"
    assert run_cli(op, out) == 0
    return op, wl.load_json(out / "solution.json"), wl.read_policy_csv(out / "policy.csv")


def test_quote_check_accepts_the_program_output(quote_output):
    op, solution, policy = quote_output
    assert wl.check_quote(op, solution, policy, np.random.default_rng(0)) == []


def test_quote_check_rejects_a_scaled_density(quote_output):
    op, solution, policy = quote_output
    bad = policy.copy()
    bad[:, 2] *= 1.01
    errors = wl.check_quote(op, solution, bad, np.random.default_rng(0))
    assert any("integrates" in e for e in errors)
    assert any("Gibbs density" in e for e in errors)


def test_quote_check_rejects_alpha_off_the_maximizer(quote_output):
    op, solution, policy = quote_output
    bad = json.loads(json.dumps(solution))
    root = math.sqrt(solution["delta"])
    plus = ref.sample_moments(op.buy)
    # half a radius toward the middle of the mean box, so alpha stays inside
    bad["alpha_star"]["plus"] += math.copysign(0.5 * root, plus[0] - solution["alpha_star"]["plus"])
    bad["beta_star"]["plus"] = float(ref.envelope(plus[0], plus[2], solution["delta"],
                                                  bad["alpha_star"]["plus"]))
    errors = wl.check_quote(op, bad, policy, np.random.default_rng(0))
    assert any("lattice" in e for e in errors)
    assert any("differs from the reference" in e for e in errors)


def test_coverage_check_rejects_a_small_radius(quote_output):
    op = quote_output[0]
    assert wl.check_coverage(op, 1e-7, 0.1, np.random.default_rng(0))


def test_sweep_check(tmp_path):
    op = wl.sweep_round(12, tmp_path)[0]
    assert run_cli(op, op.directory / "out") == 0
    rows = wl.read_shift_csv(op.directory / "out" / "shift.csv")
    solved = wl.solve_publicly(op)
    assert wl.check_sweep(op, rows, solved) == []
    moved = [dict(r) for r in rows]
    moved[1]["mean_objective"] = repr(float(rows[1]["mean_objective"])
                                      + 5.0 * float(rows[1]["std_err"]))
    errors = wl.check_sweep(op, moved, solved)
    assert len(errors) == 1 and "standard errors" in errors[0]


def test_validate_check(tmp_path):
    op = wl.validate_round(13, tmp_path)[0]
    assert run_cli(op, op.directory / "out") == 0
    rows = wl.load_json(op.directory / "out" / "validation.json")
    assert wl.check_validate(op, rows) == []
    for name in ("mean_max[buy,delta=0.04]", "beta_upper[sell,delta=0.25,t=0.4]"):
        bad = json.loads(json.dumps(rows))
        row = next(r for r in bad if r["check"] == name)
        row["oracle"] += 2.0 * wl.VALIDATE_TOL * (1.0 + abs(row["analytic"]))
        errors = wl.check_validate(op, bad)
        assert len(errors) == 1 and name in errors[0]


def test_tracer_self_times_and_metrics():
    tracer = spans.Tracer()
    tracer.names = ["cli.main", "policy.solve_inner", "moments.theorem_beta_envelope",
                    "policy.build_policy"]
    tracer.starts = [0.0, 1.0, 1.5, 4.0]
    tracer.ends = [10.0, 3.0, 2.0, 5.0]
    tracer.parents = [-1, 0, 1, 0]
    tracer.ops = [0, 0, 0, 0]
    tracer.notes = {1: "certified:7"}
    assert tracer.self_times() == [7.0, 1.5, 0.5, 1.0]
    metrics = tracer.metrics()
    assert [name for name, _, _ in spans.PER_LAYER] == list(metrics)
    assert metrics["cli.self_s_per_op"] == 7.0
    assert metrics["policy.solve_certified_s_per_call"] == 2.0
    assert metrics["policy.solve_iterations_per_call"] == 7.0
    assert metrics["moments.envelope_calls_per_op"] == 1.0
    assert tracer.layer_shares() == {"cli": 0.7, "moments": 0.05, "policy": 0.25}


def test_policy_reader_takes_plain_and_wrapped_floats_only(tmp_path):
    path = tmp_path / "policy.csv"
    path.write_text("eps_plus,eps_minus,density\n0.0,np.float64(0.25),1.5e-3\n")
    assert wl.read_policy_csv(path).tolist() == [[0.0, 0.25, 1.5e-3]]
    for field in ("np.float64(0.25", "(0.25)", "np.float32(0.25)", "0.25)", "np.float64()"):
        path.write_text(f"eps_plus,eps_minus,density\n0.0,{field},1.0\n")
        with pytest.raises(ValueError):
            wl.read_policy_csv(path)
