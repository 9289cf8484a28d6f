import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from robustmm import (
    DegeneratePolicyError,
    EmpiricalSummary,
    RobustSolution,
    SampleSet,
    SolverError,
    SpreadDomain,
    SpreadModel,
    affine,
    build_policy,
    concavity_check,
    constant,
    empirical_moments,
    exp_decay,
    expected_reward,
    read_sample_csv,
    sample_policy,
    solve_inner,
    theorem_beta_envelope,
    validate_model_on_domain,
)

from helpers import (
    binary_search_sample,
    exponent_table,
    fd_hessian,
    kernel_objective,
    nine_start_solve,
    policy_with_masses,
    rand_instance,
    refined_grid_max,
    reward_quadrature,
    worst_case_objective,
    zero_mass_cases,
)
from robustmm import policy
from robustmm.config import parse_config
from robustmm.moments import MomentSet
from robustmm.policy import _GridEvaluator, _log_mass_in_t
from robustmm.simulator import _EPISODE_BLOCK


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
    expo = exponent_table(_GridEvaluator(model, HAND_GRID), *moments)
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
    e1 = exponent_table(_GridEvaluator(plain_model(gamma=1.0), HAND_GRID), 0.8, 0.9, 1.0, 1.1)
    e2 = exponent_table(_GridEvaluator(plain_model(gamma=4.0), HAND_GRID), 0.8, 0.9, 1.0, 1.1)
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


def test_negative_demand_intensity_rejected():
    dom = SpreadDomain(eps_max=1.0, grid_n=33)
    validate_model_on_domain(plain_model(h_plus=constant(0.5)), dom)
    bad = plain_model(h_plus=affine(0.1, -1.0))  # negative past eps = 0.1
    with pytest.raises(ValueError):
        validate_model_on_domain(bad, dom)


@pytest.mark.parametrize("name, bad", [
    ("h_plus", affine(1.0, -1.000001)),  # negative only past eps = 0.999999
    ("f_plus", exp_decay(1.0, -709.9)),  # exp(709.9 eps) overflows only past eps = 0.9998
], ids=["negative-at-end", "overflow-at-end"])
def test_model_check_reaches_the_far_end(name, bad):
    vals = bad(np.linspace(0.0, 0.999, 1000))
    assert np.all(np.isfinite(vals) & (vals >= 0.0))
    with pytest.raises(ValueError, match=name):
        validate_model_on_domain(plain_model(**{name: bad}), SpreadDomain(eps_max=1.0, grid_n=33))


def test_quadrature_weights_integrate_constants():
    dom = SpreadDomain(eps_max=0.7, grid_n=33)
    assert float(np.sum(dom.axis_weights)) == pytest.approx(0.7, rel=1e-12)


def test_cell_lengths_equal_weights():
    dom = SpreadDomain(eps_max=0.7, grid_n=17)
    lo, hi = dom.cell_edges
    assert lo[0] == 0.0 and hi[-1] == 0.7
    assert np.array_equal(lo[1:], hi[:-1])
    np.testing.assert_allclose(hi - lo, dom.axis_weights, rtol=1e-12)


def test_quadrature_second_order():
    # halving h should cut the cosine integration error about fourfold
    def err(grid_n):
        dom = SpreadDomain(eps_max=1.0, grid_n=grid_n)
        approx = float(np.sum(np.cos(dom.axis_nodes) * dom.axis_weights))
        return abs(approx - math.sin(1.0))

    assert 3.0 <= err(17) / err(33) <= 5.5


def test_concavity_check_boundary_and_interior():
    def summ(var):
        return EmpiricalSummary(alpha_n=1.0, beta_n=var + 1.0, variance=var, n=4)

    assert concavity_check((summ(1.0), summ(1.0)), 1.0) is True
    assert concavity_check((summ(4.0), summ(1.0)), 1.9) is True
    assert concavity_check((summ(1.0), summ(1.0)), 1.01) is False


def test_solve_zero_radius_exact():
    sp, sm = small_summaries()
    model = plain_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    sol = solve_inner(model, dom, (sp, sm), 0.0)
    assert sol.alpha_star_plus == sp.alpha_n
    assert sol.alpha_star_minus == sm.alpha_n
    assert sol.beta_star_plus == sp.beta_n
    assert sol.beta_star_minus == sm.beta_n
    # delta = 0 leaves log Z flat in t, so the center start stops at its first check
    assert sol.iterations == 1
    ev = _GridEvaluator(model, dom)
    lz = ev.gibbs(*ev.tables(sp.alpha_n, sm.alpha_n, sp.beta_n, sm.beta_n))[0]
    assert type(lz) is float and sol.objective == -model.gamma * np.exp(lz)


def test_solve_rejects_negative_radius():
    sp, sm = small_summaries()
    with pytest.raises(ValueError, match="negative radius"):
        solve_inner(plain_model(), SpreadDomain(eps_max=0.8, grid_n=33), (sp, sm), -0.1)


@pytest.mark.parametrize("delta", [math.nan, math.inf], ids=["nan", "inf"])
def test_solve_rejects_non_finite_radius(delta):
    sp, sm = small_summaries()
    with pytest.raises(ValueError, match="radius must be finite"):
        solve_inner(plain_model(), SpreadDomain(eps_max=0.8, grid_n=33), (sp, sm), delta)


def test_solution_betas_sit_on_envelope(monkeypatch):
    # the solve reports the point of the moment set's path where it stopped, the
    # last t it reads; that point is on moments.py's envelope up to rounding
    sp, sm = small_summaries()
    model = plain_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    path, ts = MomentSet.path, []
    monkeypatch.setattr(MomentSet, "path", lambda self, t: ts.append(np.array(t)) or path(self, t))
    sol = solve_inner(model, dom, (sp, sm), 0.02)
    (ap, am), (bp, bm) = path(MomentSet((sp, sm), 0.02), ts[-1])[:2]
    assert (sol.alpha_star_plus, sol.alpha_star_minus, sol.beta_star_plus, sol.beta_star_minus) == (ap, am, bp, bm)
    assert sol.beta_star_plus == pytest.approx(theorem_beta_envelope(sp, 0.02, sol.alpha_star_plus), rel=1e-14)
    assert sol.beta_star_minus == pytest.approx(theorem_beta_envelope(sm, 0.02, sol.alpha_star_minus), rel=1e-14)


def test_solve_on_a_face_reports_the_path_point():
    # the answer sits on the corner t = (-pi/2, pi/2), where sd = sd_n; an sd read
    # back from the mean through sqrt(delta - (alpha - alpha_n)^2) turns one
    # rounding of alpha into an error of about 1e-9
    model, dom, summaries, delta = rand_instance(np.random.default_rng(18), cert=True)
    sol = solve_inner(replace(model, eta=model.eta * 0.02), dom, summaries, delta)
    r = math.sqrt(delta)
    for s, side, a, b in zip(summaries, (-1.0, 1.0), (sol.alpha_star_plus, sol.alpha_star_minus),
                             (sol.beta_star_plus, sol.beta_star_minus)):
        assert a == s.alpha_n + side * r
        want = math.sqrt(s.variance) ** 2 + a * a
        assert abs(b - want) <= 4 * math.ulp(want)


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


def test_solver_error_carries_best_iterate(monkeypatch):
    sp, sm = small_summaries()
    model = plain_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    monkeypatch.setattr(policy, "_NEWTON_TOL", 1e-16)
    monkeypatch.setattr(policy, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(SolverError) as err:
        solve_inner(model, dom, (sp, sm), 0.02)
    best = err.value.best
    assert best is not None
    assert math.isfinite(best.objective)


@pytest.mark.parametrize("delta", [0.02, 1.0], ids=["certified", "uncertified"])
def test_flat_intensity_reports_empirical_means(delta):
    # h = 0 keeps the moments out of the integrand, so log Z is flat: Newton
    # stops at the center and the moment gradient, hence the gap, is zero
    sp, sm = small_summaries()
    model = plain_model(h_plus=constant(0.0), h_minus=constant(0.0))
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    sol = solve_inner(model, dom, (sp, sm), delta)
    assert sol.concave_certificate is (delta == 0.02)
    assert sol.alpha_star_plus == sp.alpha_n
    assert sol.alpha_star_minus == sm.alpha_n
    assert sol.optimality_gap == 0.0 and sol.iterations == 1


def test_policy_density_integrates_to_one():
    rng = np.random.default_rng(33)
    for _ in range(3):
        model, dom, summaries, delta = rand_instance(rng)
        sol = solve_inner(model, dom, summaries, delta)
        pol = build_policy(model, dom, sol)
        assert abs(float(np.sum(pol.cell_masses())) - 1.0) <= 1e-6
        # the density is the Gibbs weight normalized with the node weights
        ev = _GridEvaluator(model, dom)
        e = exponent_table(ev, sol.alpha_star_plus, sol.alpha_star_minus,
                           sol.beta_star_plus, sol.beta_star_minus)
        t = np.exp(e - np.max(e))
        expected = (t / np.sum(t * dom.weights.ravel())).reshape(pol.density.shape)
        np.testing.assert_allclose(pol.density, expected, rtol=1e-13, atol=0.0)


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
    ev = _GridEvaluator(model, dom)
    log_z, weights = ev.gibbs(*ev.tables(sp.alpha_n, sm.alpha_n, sp.beta_n, sm.beta_n))
    assert log_z == -math.inf and not np.any(weights)
    with pytest.raises(DegeneratePolicyError, match="zero mass"):
        build_policy(model, dom, sol)


def test_normalizer_overflow_gives_degenerate_policy():
    # finite exponents whose mass exceeds the float range: build_policy
    # must raise its own error, not math.exp's OverflowError
    sp, sm = small_summaries()
    model = plain_model(S=1e6, gamma=1e-6, f_plus=constant(5.0))
    dom = SpreadDomain(eps_max=0.5, grid_n=33)
    sol = RobustSolution(sp.alpha_n, sm.alpha_n, sp.beta_n, sm.beta_n, -1.0, True, 0, 0.0)
    with pytest.raises(DegeneratePolicyError, match="normalizer overflow"):
        build_policy(model, dom, sol)


@pytest.mark.parametrize("case", ["nan", "inf", "log-weight"])
def test_gibbs_guards_each_row_max(case):
    # eps_max 100 on 17 nodes: every node weight exceeds 1
    dom = SpreadDomain(eps_max=100.0, grid_n=17)
    ev = _GridEvaluator(plain_model(), dom)
    assert np.all(ev.logw > 0.0)
    # the model's (A, B, C, D), one table of 17 nodes per axis
    A, B, C, D = ev.tables(0.8, 0.9, 1.0, 1.1)
    assert A.shape == B.shape == C.shape == D.shape == (17,)
    if case == "log-weight":
        # a domain's log weights stay below log(float max), far under half an ulp
        # of the float max, so only raised weights push a finite exponent past it
        A[:], B[:], C[:] = 1e308, 0.0, 0.0
        assert np.all(np.isfinite(C[:, None] * D[None, :] + A[:, None] + B[None, :]))
        ev.logw = ev.logw + 1e308
    else:
        B[5] = math.nan if case == "nan" else math.inf
    with pytest.raises(ValueError, match="integrand overflow"):
        ev.gibbs(A, B, C, D)


def test_integrand_overflow_raises():
    sp, sm = small_summaries()
    model = plain_model(S=1e6, gamma=1e-6, f_plus=constant(5.0))
    dom = SpreadDomain(eps_max=0.5, grid_n=33)
    with pytest.raises(ValueError, match="integrand overflow"):
        solve_inner(model, dom, (sp, sm), 0.01)


def test_expected_reward_matches_full_table_quadrature():
    # contracted one axis at a time, the quadrature matches the full grid_n^2
    # reward table within rounding of the quadrature of |reward|; a relative
    # bound would not hold where the reward nearly cancels. The Gibbs policy
    # and random cell masses, about a fifth of them zero, are both checked
    rng, mass_rng = np.random.default_rng(49), np.random.default_rng(51)
    for cert in (True, False):
        for grid_n in (33, 65):
            for _ in range(3):
                model, dom, summaries, delta = rand_instance(rng, cert=cert, grid_n=grid_n)
                sol = solve_inner(model, dom, summaries, delta)
                masses = mass_rng.random((grid_n, grid_n)) * (mass_rng.random((grid_n, grid_n)) < 0.8)
                sp, sm = summaries
                for pol in (build_policy(model, dom, sol), policy_with_masses(masses)):
                    for moments in ((sol.alpha_star_plus, sol.alpha_star_minus, sol.beta_star_plus,
                                     sol.beta_star_minus), (sp.alpha_n, sm.alpha_n, sp.beta_n, sm.beta_n)):
                        reward = model.gamma * exponent_table(_GridEvaluator(model, pol.domain), *moments)
                        scale = float(np.sum(pol.cell_masses().ravel() * np.abs(reward)))
                        got, want = expected_reward(model, pol, *moments), reward_quadrature(model, pol, *moments)
                        assert abs(got - want) <= 1e-13 * scale, (got, want, scale)


def test_gibbs_density_maximizes_entropy_regularized_value():
    rng = np.random.default_rng(34)
    model, dom, summaries, delta = rand_instance(rng)
    sol = solve_inner(model, dom, summaries, delta)
    pol = build_policy(model, dom, sol)

    ev = _GridEvaluator(model, dom)
    reward = model.gamma * exponent_table(
        ev, sol.alpha_star_plus, sol.alpha_star_minus,
        sol.beta_star_plus, sol.beta_star_minus).reshape(pol.density.shape)
    w = dom.weights

    def value(dens):
        mass = dens * w
        ent = -np.sum(mass * np.log(np.maximum(dens, 1e-300)))
        return float(np.sum(mass * reward) + model.gamma * ent)

    base = value(pol.density)
    signs = np.where(rng.random(pol.density.shape) < 0.5, 1.0, -1.0)
    warped = pol.density * (1.0 + 0.01 * signs)
    warped /= np.sum(warped * w)
    assert value(warped) < base


def fixture_policy():
    sp, sm = small_summaries()
    model = plain_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    return build_policy(model, dom, solve_inner(model, dom, (sp, sm), 0.02))


def assert_matches_binary_search(grid, rng_factory, size):
    got = sample_policy(grid, rng_factory(), size)
    want = binary_search_sample(grid, rng_factory(), size)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class StubRng:
    """Returns the same prescribed uniforms on every call."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == len(self.u)
        return self.u.copy()


# 0, every bucket edge k / 2^16 and its float neighbours, and the largest double below 1
EDGE = np.arange(1 << 16) / (1 << 16)
EDGE_UNIFORMS = np.concatenate(([0.0, 1.0 - 2.0 ** -53], EDGE, np.nextafter(EDGE, 0.0)[1:],
                                np.nextafter(EDGE, 1.0)))


def dyadic_cases():
    # integer counts over 2^16 put every CDF value on a bucket edge k / 2^16
    rng = np.random.default_rng(41)
    cases = {}
    for n in (17, 65, 257):
        p = rng.random(n * n) ** 4
        cases[f"edges-{n}"] = rng.multinomial(1 << 16, p / np.sum(p)).reshape(n, n) / float(1 << 16)
    # one cell per bucket edge: 2^-16 each on the first 2^16 cells of 257^2
    flat = np.zeros(257 * 257)
    flat[:1 << 16] = 2.0 ** -16
    cases["one-step-per-bucket"] = flat.reshape(257, 257)
    return cases


def test_sampling_matches_binary_search_on_fixture_policy():
    pol = fixture_policy()
    for seed in (0, 1, 42):
        assert_matches_binary_search(pol, lambda: np.random.default_rng(seed), 200_000)
    assert_matches_binary_search(pol, lambda: StubRng(EDGE_UNIFORMS), len(EDGE_UNIFORMS))


@pytest.mark.parametrize("size", [1, _EPISODE_BLOCK - 1, _EPISODE_BLOCK,
                                  _EPISODE_BLOCK + 1, 3 * _EPISODE_BLOCK + 5])
def test_sampling_matches_binary_search_across_blocks(size):
    # at and around the simulator's block size, the indexed search leaves
    # the stream and every spread as a binary search does
    pol = fixture_policy()
    got_rng, want_rng = np.random.default_rng(size), np.random.default_rng(size)
    got, want = sample_policy(pol, got_rng, size), binary_search_sample(pol, want_rng, size)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("masses", [pytest.param(m, id=k) for k, m in zero_mass_cases().items()])
def test_sampling_matches_binary_search_with_zero_mass_cells(masses):
    pol = policy_with_masses(masses)
    assert_matches_binary_search(pol, lambda: np.random.default_rng(43), 200_000)
    assert_matches_binary_search(pol, lambda: StubRng(EDGE_UNIFORMS), len(EDGE_UNIFORMS))


@pytest.mark.parametrize("masses", [pytest.param(m, id=k) for k, m in dyadic_cases().items()])
def test_sampling_matches_binary_search_on_bucket_edges(masses):
    pol = policy_with_masses(masses)
    scaled = pol._cell_cdf * (1 << 16)
    assert np.array_equal(scaled, np.round(scaled)) and pol._cell_cdf[-1] == 1.0
    assert_matches_binary_search(pol, lambda: np.random.default_rng(44), 200_000)
    assert_matches_binary_search(pol, lambda: StubRng(EDGE_UNIFORMS), len(EDGE_UNIFORMS))


@settings(max_examples=30, deadline=None)
@given(grid_n=st.integers(16, 257), seed=st.integers(0, 2**32 - 1),
       peak=st.floats(0.0, 30.0), zero_share=st.floats(0.0, 0.999))
def test_sampling_matches_binary_search_on_random_masses(grid_n, seed, peak, zero_share):
    # log-normal masses from flat (peak = 0) to a few cells holding nearly all
    # the mass, with a random share of zero-mass cells
    rng = np.random.default_rng(seed)
    masses = np.exp(peak * rng.standard_normal((grid_n, grid_n)))
    masses[rng.random((grid_n, grid_n)) < zero_share] = 0.0
    masses[rng.integers(grid_n), rng.integers(grid_n)] = 1.0
    pol = policy_with_masses(masses)
    assert_matches_binary_search(pol, lambda: np.random.default_rng(seed), 20_000)


def test_sampling_deterministic_and_in_range():
    pol = fixture_policy()
    dom = pol.domain
    a = sample_policy(pol, np.random.default_rng(42), 500)
    b = sample_policy(pol, np.random.default_rng(42), 500)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    for eps in a:
        assert eps.shape == (500,) and eps.min() >= 0.0 and eps.max() <= 0.8


def test_sampling_matches_cell_masses():
    pol = fixture_policy()
    dom = pol.domain
    n = 40000
    ep, em = sample_policy(pol, np.random.default_rng(99), n)
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
    pol = fixture_policy()
    dom = pol.domain
    ep, _ = sample_policy(pol, np.random.default_rng(123), 5000)
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
        return kernel_objective(model, dom, summaries, delta, float(x[0]), float(x[1]))

    for _ in range(5):
        u = rng.uniform(0.2, 0.8, size=2)
        x = np.array([sp.alpha_n + (2 * u[0] - 1) * root,
                      sm.alpha_n + (2 * u[1] - 1) * root])
        h = fd_hessian(fun, x, 1e-3 * root)
        scale = 1.0 + float(np.max(np.abs(h)))
        assert float(np.linalg.eigvalsh(h)[-1]) <= 1e-6 * scale


def envelope_cases(rng):
    """(model, domain, summaries, delta, t): random problems with and without the
    certificate, delta = 0, a zero-variance side and t on both faces of the box."""
    flat = empirical_moments(SampleSet("sell", (0.5, 0.5, 0.5)))
    assert flat.variance == 0.0
    cases = [(*rand_instance(rng, cert=cert), rng.uniform(-1.4, 1.4, size=2))
             for cert in (True, False) for _ in range(3)]
    model, dom, (sp, sm) = plain_model(), SpreadDomain(eps_max=0.8, grid_n=33), small_summaries()
    return cases + [(model, dom, (sp, sm), 0.0, rng.uniform(-1.4, 1.4, size=2)),
                    (model, dom, (sp, flat), 0.05, np.array([0.3, -1.2])),
                    (model, dom, (flat, sm), 0.0, np.array([1.1, 0.0])),
                    (model, dom, (sp, sm), 0.02, np.array([math.pi / 2, -math.pi / 2]))]


def test_log_mass_in_t_matches_theorem_envelope():
    # log Z at t is the objective at the path's point and, inside the mean box,
    # at moments.py's envelope over the point's means
    for model, dom, summaries, delta, t in envelope_cases(np.random.default_rng(36)):
        moments, ev = MomentSet(summaries, delta), _GridEvaluator(model, dom)
        (ap, am), (bp, bm) = moments.path(t)[:2]
        lz = _log_mass_in_t(ev, moments, t)[0]
        assert lz == pytest.approx(ev.gibbs(*ev.tables(ap, am, bp, bm))[0], rel=1e-13, abs=1e-13)
        if np.all(np.abs(t) < math.pi / 2):
            value = worst_case_objective(model, dom, summaries, delta, ap, am)[0]
            assert lz == pytest.approx(math.log(-value / model.gamma), rel=1e-13, abs=1e-13)


def test_one_pass_derivatives_match_central_differences():
    h = 1e-6
    for model, dom, summaries, delta, t in envelope_cases(np.random.default_rng(37)):
        ev = _GridEvaluator(model, dom)
        moments = MomentSet(summaries, delta)
        _, grad, hess, _ = _log_mass_in_t(ev, moments, t)
        fd_grad = np.zeros(2)
        fd_hess = np.zeros((2, 2))
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            up = _log_mass_in_t(ev, moments, t + e)
            down = _log_mass_in_t(ev, moments, t - e)
            fd_grad[i] = (up[0] - down[0]) / (2.0 * h)
            fd_hess[:, i] = (up[1] - down[1]) / (2.0 * h)
        if delta == 0.0:
            # log Z does not move with t, and neither do its exact derivatives
            assert not np.any(grad) and not np.any(hess) and not np.any(fd_grad)
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


def test_zero_eta_mass_is_a_product_of_two_axis_sums():
    # at eta = 0 the cross term C vanishes, so Z = Z+ Z-: two 1-D sums of
    # w exp(price m / gamma) with m = f + a h, whatever the second moments
    rng = np.random.default_rng(45)
    for cert in (True, False, True, False):
        model, dom, summaries, delta = rand_instance(rng, cert=cert)
        model = replace(model, eta=0.0)
        sp, sm = summaries
        ap = sp.alpha_n + rng.uniform(-1.0, 1.0, size=5) * math.sqrt(delta)
        am = sm.alpha_n + rng.uniform(-1.0, 1.0, size=5) * math.sqrt(delta)
        x, w = dom.axis_nodes, dom.axis_weights
        for k in range(5):
            got = kernel_objective(model, dom, summaries, delta, float(ap[k]), float(am[k]))
            z_plus = np.sum(w * np.exp((model.S + x) * (model.f_plus(x) + ap[k] * model.h_plus(x)) / model.gamma))
            z_minus = np.sum(w * np.exp(-(model.S - x) * (model.f_minus(x) + am[k] * model.h_minus(x))
                                        / model.gamma))
            assert got == pytest.approx(-model.gamma * z_plus * z_minus, rel=1e-13)


def test_gibbs_layer_memory_stays_per_axis():
    # a grid_n^2 float64 table is 8.4 MB at grid_n = 1025: one solve may hold
    # at most four at a time and build_policy, with its density and copy, five
    model, dom, summaries, delta = rand_instance(np.random.default_rng(46), grid_n=1025)
    table = 8 * dom.grid_n ** 2
    tracemalloc.start()
    try:
        sol = solve_inner(model, dom, summaries, delta)
        solve_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        build_policy(model, dom, sol)
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert solve_peak <= 4 * table, solve_peak / table
    assert build_peak <= 5 * table, build_peak / table


def test_moment_gradient_matches_central_differences():
    # log Z is a log-sum-exp of exponents affine in x = (a+, a-, b+, b-, c);
    # a free cross moment c adds (2 eta / gamma) (c - a+ a-) h+ h- to the exponent
    h = 1e-6
    for model, dom, summaries, delta, t in envelope_cases(np.random.default_rng(48)):
        ev = _GridEvaluator(model, dom)
        gx = _log_mass_in_t(ev, MomentSet(summaries, delta), t)[3]
        sd = np.array([math.sqrt(s.variance) for s in summaries]) + math.sqrt(delta) * np.cos(t)
        a = np.array([s.alpha_n for s in summaries]) + math.sqrt(delta) * np.sin(t)
        x = np.array([a[0], a[1], sd[0] ** 2 + a[0] ** 2, sd[1] ** 2 + a[1] ** 2, a[0] * a[1]])
        nodes = dom.axis_nodes
        cross = np.outer(model.h_plus(nodes), model.h_minus(nodes)).ravel() * 2.0 * model.eta / model.gamma

        def log_z(y):
            e = exponent_table(ev, *y[:4]) + (y[4] - y[0] * y[1]) * cross + np.log(dom.weights.ravel())
            return float(np.max(e) + np.log(np.sum(np.exp(e - np.max(e)))))

        fd = np.array([(log_z(x + h * e) - log_z(x - h * e)) / (2.0 * h) for e in np.eye(5)])
        np.testing.assert_allclose(gx, fd, rtol=1e-6, atol=1e-6 * float(np.max(np.abs(fd))))


def _scan_min(g, summaries, delta, n=2001):
    """Least g.x over an n x n lattice of t, x built from the moments' own formulas."""
    r, (sp, sm) = math.sqrt(delta), summaries
    t = np.linspace(-math.pi / 2, math.pi / 2, n)
    ap, am = sp.alpha_n + r * np.sin(t), sm.alpha_n + r * np.sin(t)
    bp = (math.sqrt(sp.variance) + r * np.cos(t)) ** 2 + ap * ap
    bm = (math.sqrt(sm.variance) + r * np.cos(t)) ** 2 + am * am
    plus, minus = g[0] * ap + g[2] * bp, g[1] * am + g[3] * bm
    return min(float(np.min(plus[i:i + 200, None] + minus[None, :] + g[4] * ap[i:i + 200, None] * am[None, :]))
               for i in range(0, n, 200))


def _moment_dot(g, summaries, delta, t):
    r, (sp, sm) = math.sqrt(delta), summaries
    ap, am = sp.alpha_n + r * math.sin(t[0]), sm.alpha_n + r * math.sin(t[1])
    bp = (math.sqrt(sp.variance) + r * math.cos(t[0])) ** 2 + ap * ap
    bm = (math.sqrt(sm.variance) + r * math.cos(t[1])) ** 2 + am * am
    return float(g @ np.array([ap, am, bp, bm, ap * am]))


def _summary(rng, variance=None, scale=1.0):
    var = float(rng.uniform(0.0, 1.0)) * scale ** 2 if variance is None else variance
    alpha = float(rng.uniform(-1.0, 2.0)) * scale
    return EmpiricalSummary(alpha, var + alpha * alpha, var, 5)


# (moment scale, g scale, budget) triples whose polynomials once had a leading
# coefficient small enough to overflow np.roots
_EXTREMES = [(1e70, 1e6, 1e-70), (1e23, 1e163, 1e-112), (1e-18, 1e-130, 1e-48), (1.0, 1e300, 1e-30)]


_LINEAR_MIN_CASES = ["random", "constant-side", "zero-cross", "zero-radius", "corners", "extreme"]


@pytest.mark.parametrize("case", _LINEAR_MIN_CASES)
def test_linear_min_matches_dense_scan(case):
    # linear_min's least value, g.x(t) less its gap, is exact: never above a
    # 2001^2 lattice scan over t, and below it by no more than the lattice's
    # own discretization; its vertex attains it
    rng = np.random.default_rng(_LINEAR_MIN_CASES.index(case))
    for k in range(4):
        scale, g_scale, delta = _EXTREMES[k] if case == "extreme" else (1.0, 10.0 ** rng.uniform(-2, 2), None)
        summaries = (_summary(rng, scale=scale), _summary(rng, 0.0 if case == "constant-side" else None, scale))
        if delta is None:
            delta = 0.0 if case == "zero-radius" else float(rng.uniform(0.01, 2.0))
        g = rng.normal(size=5) * g_scale
        g[2:4] = -np.abs(g[2:4])  # the b-derivatives are -eta E[h^2] / gamma <= 0
        if case == "zero-cross":
            g[4] = 0.0
        if case == "corners":
            g[2:4] = 0.0  # eta = 0: g.x is bilinear in sin t, least at a corner
        t = rng.uniform(-math.pi / 2, math.pi / 2, size=2)
        gap, vertex = MomentSet(summaries, delta).linear_min(g, t)
        least = _moment_dot(g, summaries, delta, t) - gap
        scan = _scan_min(g, summaries, delta)
        size = float(np.sum(np.abs(g))) * (1.0 + max(abs(s.alpha_n) + math.sqrt(s.variance) for s in summaries)
                                           + math.sqrt(delta)) ** 2
        assert gap >= 0.0 and np.all(np.abs(vertex) <= math.pi / 2)
        assert least <= scan + 1e-13 * size
        assert scan - least <= 1e-5 * size
        assert _moment_dot(g, summaries, delta, vertex) == pytest.approx(least, abs=1e-13 * size)
        if case == "zero-radius":
            assert gap == 0.0
        if case == "corners":
            assert np.array_equal(np.abs(vertex), [math.pi / 2, math.pi / 2])


def _log_z(model, objective):
    return math.log(-objective / model.gamma)


def _fixture_problems():
    """The fixture model and samples at budget 0, the fixture's certified
    0.02 and two budgets past the certificate."""
    cfg = parse_config(Path(__file__).parent / "fixtures" / "solve.cfg")
    summaries = tuple(empirical_moments(read_sample_csv(p, side))
                      for p, side in zip(cfg.require_samples(), ("buy", "sell")))
    cap = math.sqrt(summaries[0].variance * summaries[1].variance)
    return [(*cfg.require_model(), summaries, delta) for delta in (0.0, 0.02, 3 * cap, 20 * cap)]


def _random_problems():
    """rand_instance problems on grids 33 and 65, certified and not; the
    uncertified ones at 1.1-1.8, 3 and 20 times the certificate's cap."""
    rng = np.random.default_rng(49)
    problems = []
    for grid_n in (33, 65):
        for cert in (True, False):
            for scale in (None, 3.0, 20.0):
                model, dom, summaries, delta = rand_instance(rng, cert=cert, grid_n=grid_n)
                cap = math.sqrt(summaries[0].variance * summaries[1].variance)
                problems.append((model, dom, summaries, delta if cert or scale is None else scale * cap))
    return problems


# the last random problem (grid 65, 20 times the cap) has no saddle point: the
# least log Z over the moment set is not the max-min, and the gap stays at 0.146
_OPEN_GAP = {"random-11"}


@pytest.mark.parametrize("name, problem", [pytest.param(name, problem, id=name) for name, problem in zip(
    [f"random-{k}" for k in range(12)] + ["fixture-0", "fixture-cert", "fixture-3cap", "fixture-20cap"],
    _random_problems() + _fixture_problems())])
def test_solve_matches_nine_start_search(name, problem):
    # Newton from the center, restarted from the gap's vertex while the gap is
    # open, reaches the nine-start log Z; its Frank-Wolfe gap certifies it,
    # with and without the concavity certificate, where a saddle point exists
    model, dom, summaries, delta = problem
    sol = solve_inner(model, dom, summaries, delta)
    lz = _log_z(model, sol.objective)
    tol = 10.0 * policy._NEWTON_TOL * (1.0 + abs(lz))
    assert abs(lz - _log_z(model, nine_start_solve(model, dom, summaries, delta)[2])) <= tol
    assert (sol.optimality_gap > 0.1) if name in _OPEN_GAP else (0.0 <= sol.optimality_gap <= tol)
    assert sol.concave_certificate is concavity_check(summaries, delta)


def test_gap_without_a_saddle_point_is_reported():
    # a near-constant buy side and a large budget: the least log Z over the
    # moment set is not where the max-min sits, so the gap stays open; the
    # restart from the gap's vertex still reaches the nine-start answer
    summaries = (empirical_moments(SampleSet("buy", (1.1743, 1.1797) * 10)),
                 empirical_moments(SampleSet("sell", (0.8611, 0.9449) * 10)))
    model = SpreadModel(S=7.45, Q=2.61, eta=1.51, gamma=0.32, f_plus=constant(-0.46), f_minus=constant(-0.40),
                        h_plus=exp_decay(1.14, 2.6), h_minus=exp_decay(0.98, 0.21))
    dom = SpreadDomain(eps_max=0.55, grid_n=33)
    sol = solve_inner(model, dom, summaries, 0.5)
    lz = _log_z(model, sol.objective)
    tol = 10.0 * policy._NEWTON_TOL * (1.0 + abs(lz))
    assert not sol.concave_certificate
    assert sol.optimality_gap > 1.0 > tol
    assert abs(lz - _log_z(model, nine_start_solve(model, dom, summaries, 0.5)[2])) <= tol


def test_restart_from_the_gap_vertex_is_kept():
    # a near-constant buy side past the certificate: Newton from the center
    # stops at a log Z 0.0225 above the least, and only the rerun from the
    # Frank-Wolfe vertex reaches the nine-start answer, so the solve must keep it
    buy = (0.6032448928727807, 0.601194749300936, 0.6018050074632468, 0.6014368238115619, 0.605189496617635,
           0.6036504470798216, 0.5999988712733194)
    sell = (1.5033268934971948, 1.7030247730701218, 2.3336579556962507, 1.3773445208687067, 1.6658944618121678)
    summaries = (empirical_moments(SampleSet("buy", buy)), empirical_moments(SampleSet("sell", sell)))
    model = SpreadModel(S=3.519454999911896, Q=1.843894785039958, eta=0.8511922646179604, gamma=1.7617560654320168,
                        f_plus=constant(0.32948092239484705), f_minus=constant(-0.217571050394265),
                        h_plus=exp_decay(1.4629703514768937, 2.389827185983334),
                        h_minus=exp_decay(0.8603960413052112, 2.8374219805494425))
    dom, delta = SpreadDomain(eps_max=0.584855630948507, grid_n=33), 1.9868997225703426
    sol = solve_inner(model, dom, summaries, delta)
    lz = _log_z(model, sol.objective)
    tol = 10.0 * policy._NEWTON_TOL * (1.0 + abs(lz))
    assert not sol.concave_certificate and sol.optimality_gap > tol
    assert abs(lz - _log_z(model, nine_start_solve(model, dom, summaries, delta)[2])) <= tol


def _disk_points(summary, delta, near, rng, k=200):
    """k (mean, second moment) pairs of one side's moment set, found by their
    Gelbrich cost (a - alpha_n)^2 + (sd - sd_n)^2 <= delta: half drawn from the
    disk's bounding box, half drawn about the (mean, sd) pair near and pushed
    along their ray from (alpha_n, sd_n) to the disk's edge, within rounding."""
    r, sd_n = math.sqrt(delta), math.sqrt(summary.variance)
    a = summary.alpha_n + rng.uniform(-r, r, 8 * k)
    sd = rng.uniform(max(sd_n - r, 0.0), sd_n + r, 8 * k)
    keep = np.flatnonzero((a - summary.alpha_n) ** 2 + (sd - sd_n) ** 2 <= delta)[:k // 2]
    da, dsd = np.array(near)[:, None] - [[summary.alpha_n], [sd_n]] + rng.normal(0.0, 0.1 * r, (2, k // 2))
    stretch = r / np.maximum(np.hypot(da, dsd), np.finfo(float).tiny)
    a = np.concatenate((a[keep], summary.alpha_n + da * stretch))
    sd = np.concatenate((sd[keep], np.maximum(sd_n + dsd * stretch, 0.0)))
    assert len(a) == k and np.all((a - summary.alpha_n) ** 2 + (sd - sd_n) ** 2 <= delta * (1.0 + 1e-12))
    return a, sd * sd + a * a


@pytest.mark.parametrize("problem", [pytest.param(_fixture_problems()[1], id="fixture")] + [
    pytest.param(rand_instance(np.random.default_rng(60 + k), cert=True), id=f"random-{k}") for k in range(4)])
def test_gibbs_policy_guarantees_its_worst_case(problem):
    # V(pi; x) = E_pi[reward at x] + gamma H(pi) is affine in the moments x. For the
    # Gibbs policy at the answer x*, V(pi; x*) = gamma log Z(x*), and V(pi; x) - V(pi; x*)
    # = gamma gx.(x - x*) >= -gamma gap at every x of the moment set
    model, dom, summaries, delta = problem
    sol = solve_inner(model, dom, summaries, delta)
    grid = build_policy(model, dom, sol)
    mass, held = grid.cell_masses(), grid.cell_masses() > 0.0
    entropy = -float(np.sum(mass[held] * np.log(grid.density[held])))
    star = expected_reward(model, grid, sol.alpha_star_plus, sol.alpha_star_minus, sol.beta_star_plus,
                           sol.beta_star_minus)
    slack = 1e-12 * (abs(star) + model.gamma * abs(entropy))
    bound = model.gamma * math.log(-sol.objective / model.gamma)
    assert abs(star + model.gamma * entropy - bound) <= slack
    rng = np.random.default_rng(61)
    (ap, bp), (am, bm) = (_disk_points(s, delta, (a, math.sqrt(max(b - a * a, 0.0))), rng) for s, a, b in zip(
        summaries, (sol.alpha_star_plus, sol.alpha_star_minus), (sol.beta_star_plus, sol.beta_star_minus)))
    floor = bound - model.gamma * sol.optimality_gap - slack
    for x in zip(ap, am, bp, bm):
        assert expected_reward(model, grid, *x) + model.gamma * entropy >= floor


def test_uncertified_solve_takes_few_grid_passes(monkeypatch):
    # one Newton run from the center: a handful of passes, where the nine
    # starts took 46-81 iterations
    calls = []
    gibbs = _GridEvaluator.gibbs
    monkeypatch.setattr(_GridEvaluator, "gibbs", lambda self, *tabs: calls.append(1) or gibbs(self, *tabs))
    rng = np.random.default_rng(47)
    passes, iterations = [], []
    for _ in range(10):
        model, dom, summaries, delta = rand_instance(rng, cert=False)
        calls.clear()
        iterations.append(solve_inner(model, dom, summaries, delta).iterations)
        passes.append(len(calls))
    assert np.median(iterations) <= 8
    assert np.median(passes) <= 8


def test_zero_budget_solve_takes_one_grid_pass(monkeypatch):
    # at delta = 0 the moment set is one point: its one pass gives log Z with a
    # zero gradient, Newton stops there and the objective is that pass's log Z
    calls = []
    gibbs = _GridEvaluator.gibbs
    monkeypatch.setattr(_GridEvaluator, "gibbs", lambda self, *tabs: calls.append(1) or gibbs(self, *tabs))
    rng = np.random.default_rng(48)
    for problem in [_fixture_problems()[0]] + [rand_instance(rng, cert=cert)[:3] + (0.0,) for cert in (True, False)]:
        calls.clear()
        solve_inner(*problem)
        assert len(calls) == 1
