import math

import numpy as np
import pytest

from robustmm import (
    MetaDistribution,
    SampleSet,
    ShiftSpec,
    SpreadDomain,
    SpreadModel,
    build_policy,
    constant,
    empirical_moments,
    exp_decay,
    expected_reward,
    shift_experiment,
    simulate_batch,
    solve_inner,
)


def fixture_samples():
    buy = SampleSet("buy", (0.4, 1.1, 0.7, 1.6, 0.2, 0.9, 0.6, 1.2))
    sell = SampleSet("sell", (0.5, 0.9, 1.3, 0.1, 0.8, 1.0, 0.4, 1.1))
    return buy, sell


def fixture_model():
    return SpreadModel(S=5.0, Q=1.0, eta=0.8, gamma=2.0,
                       f_plus=constant(0.2), f_minus=constant(0.2),
                       h_plus=exp_decay(1.0, 1.2), h_minus=exp_decay(1.0, 1.2))


def fixture_policy(delta=0.02):
    buy, sell = fixture_samples()
    model = fixture_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    summaries = (empirical_moments(buy), empirical_moments(sell))
    sol = solve_inner(model, dom, summaries, delta)
    return model, dom, sol, build_policy(model, dom, sol)


def test_gaussian_moments():
    m = MetaDistribution.gaussian(0.4, 0.3)
    mean, second = m.moments()
    assert mean == pytest.approx(0.4, rel=1e-15)
    assert second == pytest.approx(0.4 ** 2 + 0.3 ** 2, rel=1e-15)


def test_two_point_moments():
    m = MetaDistribution.two_point(0.0, 2.0, 0.25)
    mean, second = m.moments()
    # value x1 with probability p, else x2
    assert mean == pytest.approx(0.25 * 0.0 + 0.75 * 2.0, rel=1e-15)
    assert second == pytest.approx(0.75 * 4.0, rel=1e-15)


def test_empirical_moments_match_sample_set():
    buy, _ = fixture_samples()
    m = MetaDistribution.empirical(buy)
    s = empirical_moments(buy)
    mean, second = m.moments()
    assert mean == pytest.approx(s.alpha_n, rel=1e-15)
    assert second == pytest.approx(s.beta_n, rel=1e-15)


def test_affine_pushforward_moments():
    m = MetaDistribution.gaussian(0.5, 0.2).affine(shift=0.1, scale=1.5)
    mean, second = m.moments()
    want_mean = 0.5 * 1.5 + 0.1
    want_var = (0.2 * 1.5) ** 2
    assert mean == pytest.approx(want_mean, rel=1e-12)
    assert second == pytest.approx(want_var + want_mean ** 2, rel=1e-12)


def test_draw_matches_moments():
    rng = np.random.default_rng(41)
    m = MetaDistribution.two_point(0.2, 1.4, 0.3)
    xs = m.draw(rng, 200000)
    mean, second = m.moments()
    assert float(np.mean(xs)) == pytest.approx(mean, abs=0.01)
    assert float(np.mean(xs ** 2)) == pytest.approx(second, abs=0.02)


def test_shift_spec_apply():
    base = (MetaDistribution.gaussian(1.0, 0.5), MetaDistribution.gaussian(0.8, 0.4))
    shifted = ShiftSpec(mean_shift_plus=-0.2, sd_scale_plus=2.0,
                        mean_shift_minus=0.1, sd_scale_minus=0.5).apply(base)
    mp, sp = shifted[0].moments()
    assert mp == pytest.approx(0.8, rel=1e-12)
    assert sp - mp * mp == pytest.approx(1.0, rel=1e-12)
    mm, sm = shifted[1].moments()
    assert mm == pytest.approx(0.9, rel=1e-12)
    assert sm - mm * mm == pytest.approx(0.04, rel=1e-12)


def test_order_flow_linear_in_innovation():
    # point-mass laws fix the innovations at 0.7 and 0.3
    model, dom, sol, pol = fixture_policy()
    metas = (MetaDistribution.two_point(0.7, 0.7, 1.0),
             MetaDistribution.two_point(0.3, 0.3, 1.0))
    batch = simulate_batch(pol, model, metas, 50, np.random.default_rng(0))
    hp = model.h_plus(batch["eps_plus"])
    hm = model.h_minus(batch["eps_minus"])
    np.testing.assert_allclose(batch["fill_plus"], hp * 0.7 + 0.2, rtol=1e-14)
    np.testing.assert_allclose(batch["fill_minus"], hm * 0.3 + 0.2, rtol=1e-14)


def test_accounting_identity_every_episode():
    model, dom, sol, pol = fixture_policy()
    metas = (MetaDistribution.gaussian(0.8, 0.4), MetaDistribution.gaussian(0.7, 0.5))
    rng = np.random.default_rng(17)
    batch = simulate_batch(pol, model, metas, 20000, rng)
    cash = ((model.S + batch["eps_plus"]) * batch["fill_plus"]
            - (model.S - batch["eps_minus"]) * batch["fill_minus"])
    inv = model.Q + batch["fill_plus"] - batch["fill_minus"]
    assert np.array_equal(batch["cash_delta"], cash)
    assert np.array_equal(batch["inventory_after"], inv)
    assert np.array_equal(batch["objective"], cash - model.eta * inv * inv)


def test_monte_carlo_matches_quadrature():
    model, dom, sol, pol = fixture_policy()
    ap, am = sol.alpha_star_plus, sol.alpha_star_minus
    bp, bm = sol.beta_star_plus, sol.beta_star_minus
    metas = (MetaDistribution.gaussian(ap, math.sqrt(bp - ap * ap)),
             MetaDistribution.gaussian(am, math.sqrt(bm - am * am)))
    rng = np.random.default_rng(71)
    batch = simulate_batch(pol, model, metas, 100000, rng)
    mc = float(np.mean(batch["objective"]))
    se = float(np.std(batch["objective"], ddof=1) / math.sqrt(len(batch["objective"])))
    quad = expected_reward(model, pol, ap, am, bp, bm)
    assert abs(mc - quad) <= 3.0 * se


def test_standard_error_scales_with_episodes():
    model, dom, sol, pol = fixture_policy()
    metas = (MetaDistribution.gaussian(0.8, 0.4), MetaDistribution.gaussian(0.7, 0.5))

    def se(episodes, seed):
        batch = simulate_batch(pol, model, metas, episodes, np.random.default_rng(seed))
        return float(np.std(batch["objective"], ddof=1) / math.sqrt(episodes))

    ratio = se(10000, 5) / se(1000000, 6)
    assert 8.0 <= ratio <= 12.0


def test_shift_experiment_deterministic():
    buy, sell = fixture_samples()
    model = fixture_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    kw = dict(deltas=(0.0, 0.02), shift=ShiftSpec(), episodes=2000, rng_seed=9)
    a = shift_experiment((buy, sell), model, dom, **kw)
    b = shift_experiment((buy, sell), model, dom, **kw)
    assert a.rows == b.rows


def test_shift_experiment_rows_independent_of_other_deltas():
    # appending a radius must not disturb earlier rows (spawned streams)
    buy, sell = fixture_samples()
    model = fixture_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    shift = ShiftSpec(mean_shift_plus=-0.1)
    short = shift_experiment((buy, sell), model, dom, deltas=(0.0, 0.02),
                             shift=shift, episodes=2000, rng_seed=4)
    longer = shift_experiment((buy, sell), model, dom, deltas=(0.0, 0.02, 0.05),
                              shift=shift, episodes=2000, rng_seed=4)
    assert short.rows == longer.rows[:2]


def test_shift_experiment_validation():
    buy, sell = fixture_samples()
    model = fixture_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    with pytest.raises(ValueError, match="episodes"):
        shift_experiment((buy, sell), model, dom, deltas=(0.0,),
                         shift=ShiftSpec(), episodes=500, rng_seed=0)
    with pytest.raises(ValueError, match="negative"):
        shift_experiment((buy, sell), model, dom, deltas=(-0.01,),
                         shift=ShiftSpec(), episodes=2000, rng_seed=0)


def test_robustness_pays_under_adverse_shift():
    # buy-side demand drops and both sides get noisier: larger radii must
    # not do worse, and here the ordering is strict well beyond noise
    buy, sell = fixture_samples()
    model = fixture_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    shift = ShiftSpec(mean_shift_plus=-0.35, sd_scale_plus=1.6,
                      mean_shift_minus=0.25, sd_scale_minus=1.6)
    rep = shift_experiment((buy, sell), model, dom, deltas=(0.0, 0.02, 0.08),
                           shift=shift, episodes=40000, rng_seed=11)
    r0, r1, r2 = rep.rows
    assert r2.mean_objective > r0.mean_objective + 2.0 * (r2.std_err + r0.std_err)
    assert r1.mean_objective > r0.mean_objective
    assert r2.p10_objective > r0.p10_objective


def test_meta_distribution_validation():
    with pytest.raises(ValueError):
        MetaDistribution.gaussian(0.0, -1.0)
    with pytest.raises(ValueError):
        MetaDistribution.two_point(0.0, 1.0, 1.5)
