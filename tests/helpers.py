"""Shared generators for randomized test instances.

Everything takes an explicit Generator so each test controls its seed.
Scales are kept moderate (S in single digits, h bounded by ~1.5) so
objective magnitudes stay printable and finite-difference tests are
well conditioned.
"""
from __future__ import annotations

import math

import numpy as np

from robustmm import (
    DiscreteMeasure,
    MomentTarget,
    SampleSet,
    SpreadDomain,
    SpreadModel,
    affine,
    alpha_range,
    constant,
    empirical_moments,
    exp_decay,
    moment_matrices,
    w2_squared,
    worst_case_objective,
)


def rand_samples(rng: np.random.Generator, side: str, n: int | None = None) -> SampleSet:
    if n is None:
        n = int(rng.integers(4, 7))
    return SampleSet(side, tuple(rng.uniform(0.2, 1.5, size=n)))


def rand_function(rng: np.random.Generator):
    k = int(rng.integers(0, 3))
    if k == 0:
        return constant(float(rng.uniform(0.05, 0.6)))
    if k == 1:
        # slope kept small enough to stay positive on any domain used here
        return affine(float(rng.uniform(0.1, 0.5)), float(rng.uniform(-0.05, 0.1)))
    return exp_decay(float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.5, 2.0)))


def rand_instance(rng: np.random.Generator, cert: bool = True, grid_n: int = 33):
    """Random model/domain/samples with the concavity certificate forced
    true or false via the delta budget."""
    buy = rand_samples(rng, "buy")
    sell = rand_samples(rng, "sell")
    sp, sm = empirical_moments(buy), empirical_moments(sell)
    cap = float(np.sqrt(sp.variance * sm.variance))
    if cert:
        delta = float(rng.uniform(0.2, 0.9) * cap)
    else:
        delta = float(cap * rng.uniform(1.1, 1.8))
    model = SpreadModel(
        S=float(rng.uniform(2.0, 8.0)),
        Q=float(rng.uniform(-2.0, 2.0)),
        eta=float(rng.uniform(0.0, 1.0)),
        gamma=float(rng.uniform(0.5, 3.0)),
        f_plus=rand_function(rng),
        f_minus=rand_function(rng),
        h_plus=exp_decay(float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.5, 2.0))),
        h_minus=exp_decay(float(rng.uniform(0.3, 1.2)), float(rng.uniform(0.5, 2.0))),
    )
    domain = SpreadDomain(eps_max=float(rng.uniform(0.4, 1.0)), grid_n=grid_n)
    return model, domain, (sp, sm), delta


def mean_box(summaries, delta, margin_frac: float = 1e-9):
    sp, sm = summaries
    lo_p, hi_p = alpha_range(sp, delta)
    lo_m, hi_m = alpha_range(sm, delta)
    margin = margin_frac * float(np.sqrt(delta)) if delta > 0 else 0.0
    lo = np.array([lo_p + margin, lo_m + margin])
    hi = np.array([hi_p - margin, hi_m - margin])
    return lo, hi


def _grid_fallback(fun_batch, lo: np.ndarray, hi: np.ndarray, fun, n: int = 201):
    """Exhaustive scan of the mean box plus a shrinking pattern search."""
    gp = np.linspace(lo[0], hi[0], n)
    gm = np.linspace(lo[1], hi[1], n)
    pp, mm = np.meshgrid(gp, gm, indexing="ij")
    vals = fun_batch(pp.ravel(), mm.ravel())
    k = int(np.argmax(vals))
    x = np.array([pp.ravel()[k], mm.ravel()[k]])
    best = float(vals[k])
    step = max(gp[1] - gp[0] if n > 1 else 1.0, gm[1] - gm[0] if n > 1 else 1.0)
    floor = 1e-12 * max(hi[0] - lo[0], hi[1] - lo[1], 1.0)
    while step > floor:
        improved = False
        for d in ((step, 0.0), (-step, 0.0), (0.0, step), (0.0, -step)):
            cand = np.clip(x + d, lo, hi)
            v = fun(cand)
            if v > best + 0.0:
                best = v
                x = cand
                improved = True
        if not improved:
            step *= 0.5
    return x, best


def refined_grid_max(model, domain, summaries, delta, n: int = 201) -> float:
    """Grid-search oracle: exhaustive lattice scan plus a shrinking
    pattern refinement, independent of the solver's Newton iteration."""
    lo, hi = mean_box(summaries, delta)

    def fun(x):
        return worst_case_objective(model, domain, summaries, delta,
                                    float(x[0]), float(x[1]))

    def fun_batch(ap, am):
        return worst_case_objective(model, domain, summaries, delta, ap, am)

    _, best = _grid_fallback(fun_batch, lo, hi, fun, n=n)
    return float(best)


def fd_hessian(fun, x: np.ndarray, h: float) -> np.ndarray:
    H = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            ei = np.zeros(2)
            ei[i] = h
            ej = np.zeros(2)
            ej[j] = h
            H[i, j] = (fun(x + ei + ej) - fun(x + ei - ej)
                       - fun(x - ei + ej) + fun(x - ei - ej)) / (4.0 * h * h)
    return 0.5 * (H + H.T)


def w2_distance(p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """Exact 2-Wasserstein distance between discrete measures on the line."""
    return math.sqrt(max(w2_squared(p, q), 0.0))


def product_w2_squared(
    p1: DiscreteMeasure, q1: DiscreteMeasure, p2: DiscreteMeasure, q2: DiscreteMeasure
) -> float:
    """Squared W2 between product measures p1 x p2 and q1 x q2.

    The squared Euclidean cost separates across coordinates, so the
    product distance is the sum of the marginal squared distances.
    """
    return w2_squared(p1, q1) + w2_squared(p2, q2)


def robust_profile_scalar(target: MomentTarget, summaries, n: int) -> float:
    """The profile formula for one target, term by term with 2x2 matrix
    products and the adjugate inverse: the oracle for the batched kernel."""
    alpha_n, sigma_n = moment_matrices(summaries)
    (s00, s01), (s10, s11) = sigma_n
    p = np.array([[s11, -s01], [-s10, s00]]) / (s00 * s11 - s01 * s10)
    g = float(alpha_n @ p @ alpha_n)
    d = sigma_n - np.asarray(target.sigma)
    da = np.asarray(target.alpha) - alpha_n
    dpa = d @ (p @ alpha_n)
    denom4 = 4.0 * n * (1.0 - g)
    t1 = float(da @ da) / denom4
    t2 = float(dpa @ dpa) / denom4
    t3 = float(dpa @ da) / (2.0 * n * (1.0 - g))
    t4 = float(np.trace(d @ p @ d)) / (2.0 * n)
    t5 = float(np.trace(p @ d @ d @ p @ sigma_n)) / (4.0 * n)
    return t1 + t2 + t3 + t4 + t5


def pair_average_quadratic(target: MomentTarget,
                           samples_plus: SampleSet,
                           samples_minus: SampleSet) -> float:
    """E[u' P D^2 P u] over the empirical product measure, evaluated as the
    literal average over all n^2 sample pairs; cross-checks the trace form."""
    summaries = (empirical_moments(samples_plus), empirical_moments(samples_minus))
    _, sigma_n = moment_matrices(summaries)
    p = np.linalg.inv(sigma_n)
    d = sigma_n - np.asarray(target.sigma)
    q = p @ d @ d @ p
    xp = samples_plus.as_array()
    xm = samples_minus.as_array()
    total = (
        q[0, 0] * np.mean(xp * xp)
        + q[1, 1] * np.mean(xm * xm)
        + (q[0, 1] + q[1, 0]) * np.mean(xp) * np.mean(xm)
    )
    return float(total)
