import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from robustmm import (
    DegeneratePolicyError,
    EmpiricalSummary,
    RobustSolution,
    SampleSet,
    SolverError,
    SolverOptions,
    SpreadDomain,
    SpreadModel,
    affine,
    build_policy,
    concavity_check,
    constant,
    empirical_moments,
    exp_decay,
    sample_policy,
    solve_inner,
    theorem_beta_envelope,
    validate_model_on_domain,
    worst_case_objective,
)

from helpers import fd_hessian, rand_instance, refined_grid_max
from robustmm.policy import _GridEvaluator, _log_mass_in_t


def small_summaries():
    buy = SampleSet("buy", (0.4, 1.1, 0.7, 1.6, 0.2))
    sell = SampleSet("sell", (0.5, 0.9, 1.3, 0.1, 0.8))
    return empirical_moments(buy), empirical_moments(sell)


def plain_model(**overrides):
    kw = dict(S=5.0, Q=1.0, eta=0.8, gamma=2.0,
              f_plus=constant(0.2), f_minus=constant(0.2),
              h_plus=exp_decay(1.0, 1.2), h_minus=exp_decay(1.0, 1.2))
    kw.update(overrides)
    return SpreadModel(**kw)


# step 1/16: the nodes include every spread the hand values below use
HAND_GRID = SpreadDomain(eps_max=1.0, grid_n=17)


def exponent_at(model, eps_plus, eps_minus, *moments):
    """The evaluator's Gibbs exponent at one node of HAND_GRID."""
    i, j = np.searchsorted(HAND_GRID.axis_nodes, (eps_plus, eps_minus))
    assert HAND_GRID.axis_nodes[i] == eps_plus and HAND_GRID.axis_nodes[j] == eps_minus
    expo = _GridEvaluator(model, HAND_GRID).exponent(*moments)
    return float(expo.reshape(17, 17)[i, j])


def test_coefficients_values():
    # at eta = 0 and gamma = 1 the exponent's a+ and a- slopes are
    # A = (S + e+) h+ and -B = -(S - e-) h-; eta = 1/2 with h+ = 1 lowers
    # the a+ slope by C = Q + f+ - f-
    model = SpreadModel(S=2.0, Q=-1.0, eta=0.0, gamma=1.0,
                        f_plus=exp_decay(2.0, 1.0), f_minus=exp_decay(1.0, 2.0),
                        h_plus=constant(1.0), h_minus=constant(2.0))

    def slopes(m):
        zero = exponent_at(m, 0.5, 0.125, 0.0, 0.0, 0.0, 0.0)
        return (exponent_at(m, 0.5, 0.125, 1.0, 0.0, 0.0, 0.0) - zero,
                zero - exponent_at(m, 0.5, 0.125, 0.0, 1.0, 0.0, 0.0))

    a, b = slopes(model)
    assert a == pytest.approx(2.5, rel=1e-15)
    assert b == pytest.approx(3.75, rel=1e-15)
    c = a - slopes(replace(model, eta=0.5))[0]
    assert c == pytest.approx(-1.0 + 2.0 * math.exp(-0.5) - math.exp(-0.25), rel=1e-14)


def test_log_m_linear_case():
    # eta = 0 kills every quadratic term; remaining sum is integer-exact
    model = SpreadModel(S=2.0, Q=7.0, eta=0.0, gamma=1.0,
                        f_plus=constant(1.0), f_minus=constant(2.0),
                        h_plus=constant(1.0), h_minus=constant(2.0))
    assert exponent_at(model, 0.0, 0.0, 1.0, 2.0, 0.0, 0.0) == -8.0


def test_log_m_full_formula():
    model = SpreadModel(S=4.0, Q=1.0, eta=0.5, gamma=2.0,
                        f_plus=constant(0.5), f_minus=constant(0.25),
                        h_plus=constant(1.0), h_minus=constant(0.5))
    val = exponent_at(model, 0.5, 0.25, 0.8, 0.6, 0.9, 0.5)
    # (A - 2 eta C h+) a+ - (B - 2 eta C h-) a- - eta (h+^2 b+ - 2 h+ h- a+ a-
    #  + h-^2 b-) + (S+e+) f+ - (S-e-) f- - eta C^2, all over gamma
    assert val == pytest.approx(1.054375, rel=1e-12)


def test_log_m_scales_inversely_with_gamma():
    e1 = _GridEvaluator(plain_model(gamma=1.0), HAND_GRID).exponent(0.8, 0.9, 1.0, 1.1)
    e2 = _GridEvaluator(plain_model(gamma=4.0), HAND_GRID).exponent(0.8, 0.9, 1.0, 1.1)
    np.testing.assert_allclose(e1, 4.0 * e2, rtol=1e-12)


def test_model_validation():
    with pytest.raises(ValueError):
        plain_model(gamma=0.0)
    with pytest.raises(ValueError):
        plain_model(gamma=-1.0)
    with pytest.raises(ValueError):
        plain_model(eta=-0.1)
    with pytest.raises(ValueError):
        plain_model(S=float("inf"))


def test_domain_validation():
    with pytest.raises(ValueError):
        SpreadDomain(eps_max=0.0, grid_n=33)
    with pytest.raises(ValueError):
        SpreadDomain(eps_max=1.0, grid_n=8)
    with pytest.raises(ValueError):
        SpreadDomain(eps_max=1.0, grid_n=33, quadrature="simpson")


def test_negative_demand_intensity_rejected():
    dom = SpreadDomain(eps_max=1.0, grid_n=33)
    validate_model_on_domain(plain_model(h_plus=constant(0.5)), dom)
    bad = plain_model(h_plus=affine(0.1, -1.0))  # negative past eps = 0.1
    with pytest.raises(ValueError):
        validate_model_on_domain(bad, dom)


def test_quadrature_weights_integrate_constants():
    for quad in ("trapezoid", "midpoint"):
        dom = SpreadDomain(eps_max=0.7, grid_n=33, quadrature=quad)
        assert float(np.sum(dom.axis_weights)) == pytest.approx(0.7, rel=1e-12)


def test_cell_lengths_equal_weights():
    for quad in ("trapezoid", "midpoint"):
        dom = SpreadDomain(eps_max=0.7, grid_n=17, quadrature=quad)
        lo, hi = dom.cell_edges
        assert lo[0] == 0.0 and hi[-1] == 0.7
        assert np.array_equal(lo[1:], hi[:-1])
        np.testing.assert_allclose(hi - lo, dom.axis_weights, rtol=1e-12)


def test_quadrature_second_order():
    # halving h should cut the cosine integration error about fourfold
    def err(grid_n, quad):
        dom = SpreadDomain(eps_max=1.0, grid_n=grid_n, quadrature=quad)
        approx = float(np.sum(np.cos(dom.axis_nodes) * dom.axis_weights))
        return abs(approx - math.sin(1.0))

    for quad in ("trapezoid", "midpoint"):
        ratio = err(17, quad) / err(33, quad)
        assert 3.0 <= ratio <= 5.5, (quad, ratio)


def test_concavity_check_boundary_and_interior():
    def summ(var):
        return EmpiricalSummary(alpha_n=1.0, beta_n=var + 1.0, variance=var, n=4)

    assert concavity_check((summ(1.0), summ(1.0)), 1.0) is True
    assert concavity_check((summ(4.0), summ(1.0)), 1.9) is True
    assert concavity_check((summ(1.0), summ(1.0)), 1.01) is False


def test_objective_batch_matches_scalar():
    rng = np.random.default_rng(31)
    model, dom, summaries, delta = rand_instance(rng)
    sp, sm = summaries
    root = math.sqrt(delta)
    ap = sp.alpha_n + rng.uniform(-0.9, 0.9, size=6) * root
    am = sm.alpha_n + rng.uniform(-0.9, 0.9, size=6) * root
    batch = worst_case_objective(model, dom, summaries, delta, ap, am)
    assert batch.shape == (6,)
    for k in range(6):
        scalar = worst_case_objective(model, dom, summaries, delta,
                                      float(ap[k]), float(am[k]))
        assert type(scalar) is float
        assert batch[k] == pytest.approx(scalar, rel=1e-12)


def test_solve_zero_radius_exact():
    sp, sm = small_summaries()
    model = plain_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    sol = solve_inner(model, dom, (sp, sm), 0.0)
    assert sol.alpha_star_plus == sp.alpha_n
    assert sol.alpha_star_minus == sm.alpha_n
    assert sol.beta_star_plus == sp.beta_n
    assert sol.beta_star_minus == sm.beta_n
    assert sol.iterations == 0


def test_solve_rejects_negative_radius():
    sp, sm = small_summaries()
    with pytest.raises(ValueError, match="negative radius"):
        solve_inner(plain_model(), SpreadDomain(eps_max=0.8, grid_n=33), (sp, sm), -0.1)


def test_solution_betas_sit_on_envelope():
    sp, sm = small_summaries()
    model = plain_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    sol = solve_inner(model, dom, (sp, sm), 0.02)
    assert sol.beta_star_plus == theorem_beta_envelope(sp, 0.02, sol.alpha_star_plus)
    assert sol.beta_star_minus == theorem_beta_envelope(sm, 0.02, sol.alpha_star_minus)


def test_solve_matches_refined_grid():
    rng = np.random.default_rng(32)
    model, dom, summaries, delta = rand_instance(rng)
    sol = solve_inner(model, dom, summaries, delta)
    grid = refined_grid_max(model, dom, summaries, delta)
    assert abs(sol.objective - grid) <= 1e-6 * (1.0 + abs(grid))


def test_surrogate_value_non_increasing_in_radius():
    sp, sm = small_summaries()
    model = plain_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    values = [-solve_inner(model, dom, (sp, sm), d).objective
              for d in (0.0, 0.005, 0.01, 0.02, 0.04)]
    for a, b in zip(values, values[1:]):
        assert b <= a * (1.0 + 1e-9) + 1e-12


def test_solver_error_carries_best_iterate():
    sp, sm = small_summaries()
    model = plain_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    with pytest.raises(SolverError) as err:
        solve_inner(model, dom, (sp, sm), 0.02, SolverOptions(tol=1e-16, max_iter=1))
    best = err.value.best
    assert best is not None
    assert math.isfinite(best.objective)


@pytest.mark.parametrize("delta", [0.02, 1.0], ids=["certified", "nine-starts"])
def test_flat_intensity_reports_empirical_means(delta):
    # h = 0 keeps the moments out of the integrand, so every start stops
    # where it began with the same log Z; the center start comes first
    # and wins the tie
    sp, sm = small_summaries()
    model = plain_model(h_plus=constant(0.0), h_minus=constant(0.0))
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    sol = solve_inner(model, dom, (sp, sm), delta)
    assert sol.concave_certificate is (delta == 0.02)
    assert sol.alpha_star_plus == sp.alpha_n
    assert sol.alpha_star_minus == sm.alpha_n


def test_policy_density_integrates_to_one():
    rng = np.random.default_rng(33)
    for _ in range(3):
        model, dom, summaries, delta = rand_instance(rng)
        sol = solve_inner(model, dom, summaries, delta)
        pol = build_policy(model, dom, sol)
        assert abs(float(np.sum(pol.cell_masses())) - 1.0) <= 1e-6


def test_policy_uniform_when_exponent_constant():
    # zero intensity and zero baseline leave a constant Gibbs weight
    sp, sm = small_summaries()
    model = plain_model(h_plus=constant(0.0), h_minus=constant(0.0),
                        f_plus=constant(0.0), f_minus=constant(0.0))
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    sol = solve_inner(model, dom, (sp, sm), 0.01)
    pol = build_policy(model, dom, sol)
    flat = 1.0 / (0.8 * 0.8)
    assert np.allclose(pol.density, flat, rtol=1e-12)


def test_degenerate_policy_raises():
    # inventory penalty so large the normalizer underflows to zero
    sp, sm = small_summaries()
    model = SpreadModel(S=5.0, Q=1000.0, eta=1e6, gamma=1.0,
                        f_plus=constant(0.01), f_minus=constant(0.01),
                        h_plus=constant(0.01), h_minus=constant(0.01))
    dom = SpreadDomain(eps_max=0.5, grid_n=33)
    sol = solve_inner(model, dom, (sp, sm), 0.01)
    with pytest.raises(DegeneratePolicyError, match="normalizer underflow"):
        build_policy(model, dom, sol)


@pytest.mark.filterwarnings("error")
def test_vanishing_integrand_gives_degenerate_policy():
    # eta C^2 overflows to +inf, so every Gibbs weight is exp(-inf) = 0
    sp, sm = small_summaries()
    model = plain_model(Q=1e200)
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    sol = solve_inner(model, dom, (sp, sm), 0.02)
    assert sol.objective == 0.0
    with pytest.raises(DegeneratePolicyError, match="zero mass"):
        build_policy(model, dom, sol)


def test_normalizer_overflow_gives_degenerate_policy():
    # finite exponents whose mass exceeds the float range: build_policy
    # must raise its own error, not math.exp's OverflowError
    sp, sm = small_summaries()
    model = plain_model(S=1e6, gamma=1e-6, f_plus=constant(5.0))
    dom = SpreadDomain(eps_max=0.5, grid_n=33)
    sol = RobustSolution(sp.alpha_n, sm.alpha_n, sp.beta_n, sm.beta_n, -1.0, True, 0)
    with pytest.raises(DegeneratePolicyError, match="normalizer overflow"):
        build_policy(model, dom, sol)


def test_integrand_overflow_raises():
    sp, sm = small_summaries()
    model = plain_model(S=1e6, gamma=1e-6, f_plus=constant(5.0))
    dom = SpreadDomain(eps_max=0.5, grid_n=33)
    with pytest.raises(ValueError, match="integrand overflow"):
        solve_inner(model, dom, (sp, sm), 0.01)


def test_gibbs_density_maximizes_entropy_regularized_value():
    rng = np.random.default_rng(34)
    model, dom, summaries, delta = rand_instance(rng)
    sol = solve_inner(model, dom, summaries, delta)
    pol = build_policy(model, dom, sol)

    ev = _GridEvaluator(model, dom)
    reward = model.gamma * ev.exponent(
        sol.alpha_star_plus, sol.alpha_star_minus,
        sol.beta_star_plus, sol.beta_star_minus).reshape(pol.density.shape)
    w = ev.wprod.reshape(pol.density.shape)

    def value(dens):
        mass = dens * w
        ent = -np.sum(mass * np.log(np.maximum(dens, 1e-300)))
        return float(np.sum(mass * reward) + model.gamma * ent)

    base = value(pol.density)
    signs = np.where(rng.random(pol.density.shape) < 0.5, 1.0, -1.0)
    warped = pol.density * (1.0 + 0.01 * signs)
    warped /= np.sum(warped * w)
    assert value(warped) < base


def test_sampling_deterministic_and_in_range():
    sp, sm = small_summaries()
    model = plain_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    sol = solve_inner(model, dom, (sp, sm), 0.02)
    pol = build_policy(model, dom, sol)
    a = sample_policy(pol, 42, size=500)
    b = sample_policy(pol, 42, size=500)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    gen = np.random.default_rng(42)
    c = sample_policy(pol, gen, size=500)
    assert np.array_equal(a[0], c[0])
    assert a[0].min() >= 0.0 and a[0].max() <= 0.8
    one = sample_policy(pol, 7)
    assert isinstance(one, tuple) and len(one) == 2
    assert 0.0 <= one[0] <= 0.8 and 0.0 <= one[1] <= 0.8


def test_sampling_matches_cell_masses():
    sp, sm = small_summaries()
    model = plain_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    sol = solve_inner(model, dom, (sp, sm), 0.02)
    pol = build_policy(model, dom, sol)
    n = 40000
    ep, em = sample_policy(pol, 99, size=n)
    masses = pol.cell_masses()
    # quadrant blocks keep expected counts large enough for a z-test
    half = dom.grid_n // 2
    lo_e, hi_e = dom.cell_edges
    cut_p = hi_e[half - 1]
    blocks = [
        (masses[:half, :half], (ep < cut_p) & (em < cut_p)),
        (masses[:half, half:], (ep < cut_p) & (em >= cut_p)),
        (masses[half:, :half], (ep >= cut_p) & (em < cut_p)),
        (masses[half:, half:], (ep >= cut_p) & (em >= cut_p)),
    ]
    for block, mask in blocks:
        m = float(np.sum(block))
        got = float(np.mean(mask))
        se = math.sqrt(m * (1.0 - m) / n)
        assert abs(got - m) <= 3.0 * se + 1e-12


def test_sampling_marginal_ks():
    sp, sm = small_summaries()
    model = plain_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    sol = solve_inner(model, dom, (sp, sm), 0.02)
    pol = build_policy(model, dom, sol)
    ep, _ = sample_policy(pol, 123, size=5000)
    lo_e, hi_e = dom.cell_edges
    marg = pol.cell_masses().sum(axis=1)
    xs = np.concatenate(([lo_e[0]], hi_e))
    cdf_vals = np.concatenate(([0.0], np.cumsum(marg)))
    cdf_vals /= cdf_vals[-1]
    res = stats.kstest(ep, lambda t: np.interp(t, xs, cdf_vals))
    assert res.pvalue > 1e-3


def test_certificate_false_still_matches_grid():
    rng = np.random.default_rng(35)
    model, dom, summaries, delta = rand_instance(rng, cert=False)
    assert not concavity_check(summaries, delta)
    sol = solve_inner(model, dom, summaries, delta)
    assert sol.concave_certificate is False
    grid = refined_grid_max(model, dom, summaries, delta)
    assert abs(sol.objective - grid) <= 1e-6 * (1.0 + abs(grid))


def test_hessian_negative_under_certificate():
    rng = np.random.default_rng(36)
    model, dom, summaries, delta = rand_instance(rng, cert=True)
    sp, sm = summaries
    root = math.sqrt(delta)

    def fun(x):
        return worst_case_objective(model, dom, summaries, delta,
                                    float(x[0]), float(x[1]))

    for _ in range(5):
        u = rng.uniform(0.2, 0.8, size=2)
        x = np.array([sp.alpha_n + (2 * u[0] - 1) * root,
                      sm.alpha_n + (2 * u[1] - 1) * root])
        h = fd_hessian(fun, x, 1e-3 * root)
        scale = 1.0 + float(np.max(np.abs(h)))
        assert float(np.linalg.eigvalsh(h)[-1]) <= 1e-6 * scale


def test_one_pass_derivatives_match_central_differences():
    rng = np.random.default_rng(37)
    h = 1e-6
    for cert in (True, False):
        for _ in range(3):
            model, dom, summaries, delta = rand_instance(rng, cert=cert)
            ev = _GridEvaluator(model, dom)
            t = rng.uniform(-1.4, 1.4, size=2)
            _, grad, hess = _log_mass_in_t(ev, summaries, delta, t)
            fd_grad = np.zeros(2)
            fd_hess = np.zeros((2, 2))
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                up = _log_mass_in_t(ev, summaries, delta, t + e)
                down = _log_mass_in_t(ev, summaries, delta, t - e)
                fd_grad[i] = (up[0] - down[0]) / (2.0 * h)
                fd_hess[:, i] = (up[1] - down[1]) / (2.0 * h)
            np.testing.assert_allclose(grad, fd_grad, rtol=1e-6,
                                       atol=1e-6 * float(np.max(np.abs(fd_grad))))
            np.testing.assert_allclose(hess, fd_hess, rtol=1e-6,
                                       atol=1e-6 * float(np.max(np.abs(fd_hess))))


def test_solve_on_face_of_mean_box_matches_refined_grid():
    # eta = 0 leaves the exponent linear in the means, so log Z rises with
    # alpha+ and falls with alpha-: the maximizer sits at the corner
    # (alpha_n+ - sqrt(delta), alpha_n- + sqrt(delta)) of the mean box
    rng = np.random.default_rng(38)
    for cert in (True, False):
        for _ in range(2):
            model, dom, summaries, delta = rand_instance(rng, cert=cert)
            model = replace(model, eta=0.0)
            sp, sm = summaries
            sol = solve_inner(model, dom, summaries, delta)
            root = math.sqrt(delta)
            assert sol.alpha_star_plus == pytest.approx(sp.alpha_n - root, abs=1e-12)
            assert sol.alpha_star_minus == pytest.approx(sm.alpha_n + root, abs=1e-12)
            grid = refined_grid_max(model, dom, summaries, delta)
            assert abs(sol.objective - grid) <= 1e-6 * (1.0 + abs(grid))
