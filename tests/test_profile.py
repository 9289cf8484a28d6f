import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from robustmm import (
    EmpiricalSummary,
    SampleSet,
    empirical_moments,
    gram_bound_check,
    moment_matrices,
    robust_profile,
    select_radius,
)
import robustmm.profile
from robustmm.moments import read_sample_csv
from robustmm.profile import RadiusSelection, product_moments

from helpers import pair_average_quadratic, robust_profile_scalar


def summaries_from(rng, n=12):
    buy = SampleSet("buy", tuple(rng.uniform(0.2, 1.8, size=n)))
    sell = SampleSet("sell", tuple(rng.uniform(0.2, 1.8, size=n)))
    return buy, sell, (empirical_moments(buy), empirical_moments(sell))


def test_profile_zero_at_empirical():
    rng = np.random.default_rng(21)
    for _ in range(20):
        _, _, summaries = summaries_from(rng)
        alpha_n, sigma_n = moment_matrices(summaries)
        assert abs(robust_profile(alpha_n[None], sigma_n[None], summaries)[0]) <= 1e-12


def test_profile_nonnegative_on_random_targets():
    rng = np.random.default_rng(22)
    _, _, summaries = summaries_from(rng)
    sp, sm = summaries
    for _ in range(100):
        ap = sp.alpha_n + rng.normal(0, 0.2)
        am = sm.alpha_n + rng.normal(0, 0.2)
        bp = max(sp.beta_n * rng.uniform(0.7, 1.4), ap * ap + 1e-6)
        bm = max(sm.beta_n * rng.uniform(0.7, 1.4), am * am + 1e-6)
        assert robust_profile(*product_moments([ap], [am], [bp], [bm]), summaries)[0] >= -1e-12


def test_gram_bound_unit_variance_unit_means():
    # var = 1 each side, means (1, 1): g = 2/(1 + 2) = 2/3
    summaries = (EmpiricalSummary(alpha_n=1.0, beta_n=2.0, variance=1.0, n=5),
                 EmpiricalSummary(alpha_n=1.0, beta_n=2.0, variance=1.0, n=5))
    assert gram_bound_check(summaries) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_gram_bound_below_one_for_positive_variance():
    # Schur: g < 1 iff the centered covariance block is positive definite,
    # which holds whenever both sides have positive variance
    rng = np.random.default_rng(23)
    for _ in range(50):
        _, _, summaries = summaries_from(rng, n=int(rng.integers(2, 30)))
        g = gram_bound_check(summaries)
        assert 0.0 <= g < 1.0


def test_moment_matrices_product_structure():
    rng = np.random.default_rng(24)
    _, _, summaries = summaries_from(rng)
    sp, sm = summaries
    alpha, sigma = moment_matrices(summaries)
    assert tuple(alpha) == (sp.alpha_n, sm.alpha_n)
    assert sigma[0, 0] == pytest.approx(sp.beta_n, rel=1e-15)
    assert sigma[1, 1] == pytest.approx(sm.beta_n, rel=1e-15)
    assert sigma[0, 1] == pytest.approx(sp.alpha_n * sm.alpha_n, rel=1e-15)


def test_pair_average_equals_trace_form():
    # n^2-pair average of u'PD^2Pu over the empirical product measure
    # collapses to tr(P D^2 P Sigma_n)
    rng = np.random.default_rng(25)
    for _ in range(10):
        buy, sell, summaries = summaries_from(rng, n=int(rng.integers(3, 10)))
        sp, sm = summaries
        ap = sp.alpha_n + rng.normal(0, 0.1)
        am = sm.alpha_n + rng.normal(0, 0.1)
        bp = max(sp.beta_n * rng.uniform(0.8, 1.2), ap * ap + 1e-6)
        bm = max(sm.beta_n * rng.uniform(0.8, 1.2), am * am + 1e-6)
        _, target = product_moments(float(ap), float(am), float(bp), float(bm))
        _, sigma = moment_matrices(summaries)
        p = np.linalg.inv(sigma)
        d = sigma - target
        trace_form = float(np.trace(p @ d @ d @ p @ sigma))
        averaged = pair_average_quadratic(target, buy, sell)
        assert averaged == pytest.approx(trace_form, rel=1e-12, abs=1e-14)


def test_moment_target_validation():
    # one-row stacks, and unstacked or short shapes, which the messages name
    _, _, summaries = summaries_from(np.random.default_rng(33))
    eye = np.eye(2)
    cases = [
        ("symmetric", [[0.0, 0.0]], [[[1.0, 0.3], [0.1, 1.0]]]),
        ("dominate", [[2.0, 0.0]], [eye]),
        (r"alpha must be a finite \(k, 2\) stack, got shape \(1, 1\)", [[0.0]], [eye]),
        (r"alpha must be a finite \(k, 2\) stack, got shape \(2,\)", [0.0, 0.0], [eye]),
        (r"sigma must be a finite \(k, 2, 2\) stack with k = 1, got shape \(2, 2\)", [[0.0, 0.0]], eye),
    ]
    for message, alpha, sigma in cases:
        with pytest.raises(ValueError, match=message):
            robust_profile(np.array(alpha), np.array(sigma), summaries)


def random_targets(rng, summaries, k, general):
    """k targets around the empirical moments: product-measure ones, or
    general symmetric ones with a free off-diagonal."""
    alpha_n, sigma_n = moment_matrices(summaries)
    alpha = alpha_n + rng.normal(0, 0.2, size=(k, 2))
    sigma = sigma_n * rng.uniform(0.7, 1.4, size=(k, 2, 2))
    if general:
        sigma[:, 1, 0] = sigma[:, 0, 1]
    else:
        sigma[:, 0, 1] = sigma[:, 1, 0] = alpha[:, 0] * alpha[:, 1]
    for j in range(2):
        sigma[:, j, j] = np.maximum(sigma[:, j, j], alpha[:, j] ** 2 + 1e-6)
    return alpha, sigma


@pytest.mark.parametrize("general", [False, True], ids=["product", "general"])
def test_profile_batch_matches_scalar_oracle(general):
    rng = np.random.default_rng(30 + general)
    for _ in range(20):
        _, _, summaries = summaries_from(rng, n=int(rng.integers(2, 40)))
        n = summaries[0].n
        alpha, sigma = random_targets(rng, summaries, 25, general)
        values = robust_profile(alpha, sigma, summaries)
        for i, value in enumerate(values):
            assert value == pytest.approx(robust_profile_scalar(alpha[i], sigma[i], summaries, n), rel=1e-13)
            # a one-row stack prices its row bit for bit as the whole stack does
            assert robust_profile(alpha[i:i + 1], sigma[i:i + 1], summaries)[0] == value


def test_profile_batch_applies_target_rules_to_every_row():
    rng = np.random.default_rng(32)
    _, _, summaries = summaries_from(rng)
    alpha, sigma = random_targets(rng, summaries, 10, general=True)
    sigma[6, 1, 1] = alpha[6, 1] ** 2 - 1e-3
    with pytest.raises(ValueError, match="diagonal of sigma must dominate squared means"):
        robust_profile(alpha, sigma, summaries)


def test_degenerate_covariance_rejected():
    # zero variance on one side drives the gram statistic to 1 exactly
    buy = SampleSet("buy", (0.7, 0.7, 0.7))
    sell = SampleSet("sell", (0.4, 0.9, 1.1))
    with pytest.raises(ValueError, match="gram bound"):
        select_radius(buy, sell, chi=0.1, resamples=100, rng_seed=0)


def test_select_radius_deterministic():
    rng = np.random.default_rng(26)
    buy, sell, _ = summaries_from(rng, n=20)
    a = select_radius(buy, sell, chi=0.1, resamples=150, rng_seed=7)
    b = select_radius(buy, sell, chi=0.1, resamples=150, rng_seed=7)
    assert a == b
    c = select_radius(buy, sell, chi=0.1, resamples=150, rng_seed=8)
    assert c.delta_hat != a.delta_hat


def test_select_radius_quantile_relation():
    rng = np.random.default_rng(27)
    buy, sell, _ = summaries_from(rng, n=15)
    sel = select_radius(buy, sell, chi=0.2, resamples=120, rng_seed=3)
    assert sel.delta_hat == pytest.approx(math.sqrt(sel.profile_quantile / 2.0), rel=1e-12)
    assert sel.profile_quantile >= 0.0


def test_select_radius_monotone_in_chi():
    # higher confidence (smaller chi) needs a radius at least as large
    rng = np.random.default_rng(28)
    buy, sell, _ = summaries_from(rng, n=25)
    radii = [select_radius(buy, sell, chi=c, resamples=200, rng_seed=5).delta_hat
             for c in (0.05, 0.2, 0.5, 0.9)]
    for a, b in zip(radii, radii[1:]):
        assert b <= a + 1e-15


def test_select_radius_input_validation():
    rng = np.random.default_rng(29)
    buy, sell, _ = summaries_from(rng, n=10)
    with pytest.raises(ValueError):
        select_radius(buy, sell, chi=0.0)
    with pytest.raises(ValueError):
        select_radius(buy, sell, chi=1.0)
    with pytest.raises(ValueError):
        select_radius(buy, sell, chi=0.1, resamples=50)
    short = SampleSet("sell", tuple(np.asarray(sell.values)[:-1]))
    with pytest.raises(ValueError):
        select_radius(buy, short, chi=0.1)


def test_bootstrap_chunks_keep_the_stream(monkeypatch):
    fixtures = Path(__file__).parent / "fixtures"
    buy = read_sample_csv(fixtures / "buy.csv", "buy")
    sell = read_sample_csv(fixtures / "sell.csv", "sell")
    n, resamples, seed = buy.n, 200, 7
    whole = select_radius(buy, sell, chi=0.1, resamples=resamples, rng_seed=seed)
    # 7 rounds a block: 29 blocks per side, the last one short
    monkeypatch.setattr(robustmm.profile, "_CHUNK", 7 * n + 3)
    assert select_radius(buy, sell, chi=0.1, resamples=resamples, rng_seed=seed) == whole

    rng = np.random.default_rng(seed)
    draws = [s.as_array()[rng.integers(0, n, size=(resamples, n))] for s in (buy, sell)]
    (ap, bp), (am, bm) = [(v.mean(axis=1), (v * v).mean(axis=1)) for v in draws]
    sigma = np.stack([bp, ap * am, ap * am, bm], axis=1).reshape(-1, 2, 2)
    summaries = (empirical_moments(buy), empirical_moments(sell))
    values = robust_profile(np.stack([ap, am], axis=1), sigma, summaries)
    q = max(float(np.quantile(values, 0.9, method="higher")), 0.0)
    assert whole == RadiusSelection(delta_hat=math.sqrt(q / 2.0), profile_quantile=q,
                                    gram_bound=gram_bound_check(summaries))


def test_bootstrap_memory_is_bounded():
    # one draw of every round at once would hold about 400 MB here
    rng = np.random.default_rng(30)
    buy = SampleSet("buy", tuple(rng.uniform(0.2, 1.8, size=20_000)))
    sell = SampleSet("sell", tuple(rng.uniform(0.2, 1.8, size=20_000)))
    tracemalloc.start()
    try:
        select_radius(buy, sell, chi=0.1, resamples=500, rng_seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20
