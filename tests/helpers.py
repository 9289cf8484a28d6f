"""Shared generators for randomized test instances.

Everything takes an explicit Generator so each test controls its seed.
Scales are kept moderate (S in single digits, h bounded by ~1.5) so
objective magnitudes stay printable and finite-difference tests are
well conditioned.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from robustmm import (
    DiscreteMeasure,
    MomentTarget,
    PolicyGrid,
    SampleSet,
    SpreadDomain,
    SpreadModel,
    affine,
    alpha_range,
    constant,
    empirical_moments,
    exp_decay,
    moment_matrices,
    theorem_beta_envelope,
    w2_squared,
    worst_case_objective,
)
from robustmm.moments import check_radius
from robustmm.policy import _NEWTON_MAX_ITER, _NEWTON_TOL, _GridEvaluator, _log_mass_in_t
from robustmm.simulator import _EPISODE_BLOCK


@dataclass(frozen=True)
class GaussianLaw:
    """Normal innovation law: a ground truth that simulate_batch draws from
    in place of a MetaDistribution, for Monte Carlo checks against quadrature."""

    mean: float
    sd: float

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.normal(self.mean, self.sd, size=size)


@dataclass
class FixedLaw:
    """Innovation law that serves prescribed draws in order from a cursor,
    in place of a MetaDistribution, for exact checks of the simulator's
    bookkeeping; assert_consumed checks that every value was served."""

    values: np.ndarray
    cursor: int = 0

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        end = self.cursor + size
        assert end <= len(self.values), (end, len(self.values))
        # a fresh array, like MetaDistribution's
        out = np.array(self.values[self.cursor:end], dtype=float)
        self.cursor = end
        return out

    def assert_consumed(self) -> None:
        assert self.cursor == len(self.values), (self.cursor, len(self.values))


def binary_search_sample(grid, rng, size):
    """Reference sampler: sample_policy's uniform stream with each cell
    found by a plain binary search of the cell CDF."""
    u, ux, uy = rng.random(size), rng.random(size), rng.random(size)
    i, j = np.divmod(np.searchsorted(grid._cell_cdf, u, side="left"), grid.domain.grid_n)
    lo, hi = grid.domain.cell_edges
    return lo[i] + ux * (hi[i] - lo[i]), lo[j] + uy * (hi[j] - lo[j])


def policy_with_masses(masses):
    """PolicyGrid on [0, 1]^2 whose cell masses are masses / sum(masses);
    at grid_n = 2^k + 1 every weight is a power of two, so dyadic masses
    pass through the density exactly."""
    n = masses.shape[0]
    dom = SpreadDomain(eps_max=1.0, grid_n=n)
    w = dom.axis_weights
    return PolicyGrid(dom, masses / np.sum(masses) / (w[:, None] * w[None, :]))


def zero_mass_cases():
    rng = np.random.default_rng(40)
    base = rng.random((33, 33)) + 0.01
    leading, trailing, interior, single = (base.copy() for _ in range(4))
    leading.ravel()[:100] = 0.0
    trailing.ravel()[-100:] = 0.0
    for start in (50, 300, 700):
        interior.ravel()[start:start + 40] = 0.0
    single[:] = 0.0
    single[17, 5] = 1.0
    return {"leading": leading, "trailing": trailing, "interior": interior, "single": single}


def one_pass_batch(policy, model, metas, episodes, rng):
    """One pass over all episodes: every spread pair, then every plus
    innovation, then every minus one, each field built in one expression
    and each cell found by binary search."""
    eps_plus, eps_minus = binary_search_sample(policy, rng, episodes)
    dn_p = np.asarray(model.h_plus(eps_plus)) * metas[0].draw(rng, episodes) + np.asarray(model.f_plus(eps_plus))
    dn_m = np.asarray(model.h_minus(eps_minus)) * metas[1].draw(rng, episodes) + np.asarray(model.f_minus(eps_minus))
    cash = (model.S + eps_plus) * dn_p - (model.S - eps_minus) * dn_m
    inventory = model.Q + dn_p - dn_m
    objective = cash - model.eta * inventory * inventory
    return {"eps_plus": eps_plus, "eps_minus": eps_minus,
            "fill_plus": dn_p, "fill_minus": dn_m, "objective": objective}


def one_shot_batch(policy, model, metas, episodes, rng):
    """Reference simulator: simulate_batch's random stream and arithmetic,
    one pass per block of _EPISODE_BLOCK episodes, with the spreads, fills
    and objective of every episode."""
    passes = [one_pass_batch(policy, model, metas, min(_EPISODE_BLOCK, episodes - start), rng)
              for start in range(0, episodes, _EPISODE_BLOCK)]
    return {key: np.concatenate([p[key] for p in passes]) for key in passes[0]}


# The scalar bracket and transport distance of moment_range_search before
# it bracketed a side's rows in one pass, kept unchanged (each measure
# sorted on every call) as the reference for the row path.
_REF_OBJECTIVES = {"max_mean": (0.0, 1.0), "min_mean": (0.0, -1.0),
                   "max_second_moment": (1.0, 0.0), "min_second_moment": (-1.0, 0.0)}
_REF_PULL = np.concatenate(([0.0], 2.0 ** np.arange(-52, 1)))
_REF_OVERFLOW = "moment bracket leaves the float range"


def _reference_sorted(measure: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(measure.atoms, dtype=float)
    w = np.asarray(measure.weights, dtype=float)
    order = np.argsort(x, kind="stable")
    return x[order], w[order]


def reference_w2_squared(p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    xp, wp = _reference_sorted(p)
    xq, wq = _reference_sorted(q)
    cwp, cwq = np.cumsum(wp), np.cumsum(wq)
    ts = np.sort(np.concatenate([cwp, cwq]), kind="stable")
    ip = np.minimum(np.searchsorted(cwp, ts, side="left"), len(xp) - 1)
    iq = np.minimum(np.searchsorted(cwq, ts, side="left"), len(xq) - 1)
    seg = np.diff(ts, prepend=0.0)
    d = xp[ip] - xq[iq]
    return float(np.sum(seg * d * d))


def reference_bracket(
    empirical: DiscreteMeasure, delta: float, objective: str, alpha: float | None
) -> tuple[DiscreteMeasure, float, float]:
    """One row of moment_range_search: the witness with its (value, bound)."""
    if objective not in _REF_OBJECTIVES:
        raise ValueError(f"objective must be one of {tuple(_REF_OBJECTIVES)}, got {objective!r}")
    check_radius(delta)
    second = objective.endswith("second_moment")
    if second and (alpha is None or not math.isfinite(alpha)):
        raise ValueError(f"{objective} requires a finite mean constraint alpha, got {alpha!r}")
    x, w = _reference_sorted(empirical)
    x, w = x[w > 0], w[w > 0]
    reach = float(x[-1]) - float(x[0]) + 2.0 * math.sqrt(delta / float(np.min(w)))
    if not math.isfinite(reach * reach):
        raise ValueError(_REF_OVERFLOW)
    center = float(np.dot(w, x))
    center += float(np.dot(w, x - center))
    d = x - center
    a = alpha - center if second else 0.0
    edge = math.sqrt(delta)
    if abs(a) > edge + 1e-12 * (1.0 + abs(center)):
        raise ValueError("no feasible measure")
    a = min(max(a, -edge), edge)
    p, b = _REF_OBJECTIVES[objective]
    const = p * (alpha * alpha - a * a) if second else b * center
    anchor = d + a
    rr = delta - a * a
    with np.errstate(over="ignore", invalid="ignore"):
        u = anchor
        if rr > 0.0:
            r = math.sqrt(rr)
            s = math.sqrt(float(np.dot(w, d * d)))
            if p == 0.0:
                k = lam = 0.5 / r
            elif p > 0.0:
                k = max(s / r, math.ulp(0.0))
                lam = k + 1.0
            else:
                k = max(s / r, 1.0)
                lam = k - 1.0
            u = a + (0.5 * b + lam * d) / k
            sups = (k * a + 0.5 * b + p * d) * (u + d) - p * d * d
            bound = const + lam * delta - 2.0 * k * a * a + float(np.dot(w, sups))
            if p > 0.0 and s == 0.0:
                x, d, w = np.repeat(x, 2), np.repeat(d, 2), np.repeat(0.5 * w, 2)
                anchor = d + a
                u = anchor + r * np.resize((1.0, -1.0), len(d))
            if second:
                u = u + (a - float(np.dot(w, u)))
        for back in _REF_PULL if rr > 0.0 else (0.0,):
            atoms = u + back * (anchor - u)
            witness = DiscreteMeasure(tuple(x + (atoms - d)), tuple(w))
            if reference_w2_squared(witness, empirical) <= delta:
                break
        value = const + float(np.dot(w, (p * atoms + b) * atoms))
    bound = value if rr <= 0.0 else bound
    if not (math.isfinite(value) and math.isfinite(bound)):
        raise ValueError(_REF_OVERFLOW)
    sign = -1.0 if objective.startswith("min") else 1.0
    return witness, sign * value, sign * bound


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


def nine_start_solve(model, domain, summaries, delta):
    """The multi-start search solve_inner ran before its Frank-Wolfe
    certificate, kept as a reference: projected Newton from the nine points
    of {-pi/2, 0, pi/2}^2, the center first, keeping the lowest log Z.
    Returns (alpha_plus, alpha_minus, objective, iterations)."""
    ev = _GridEvaluator(model, domain)
    half = math.pi / 2.0

    def descend(t: np.ndarray) -> tuple[np.ndarray, float, int, bool]:
        lz, g, hess, _ = _log_mass_in_t(ev, summaries, delta, t)
        for it in range(1, _NEWTON_MAX_ITER + 1):
            # a coordinate on a bound whose descent direction leaves the box stays put
            free = ~(((t <= -half) & (g > 0.0)) | ((t >= half) & (g < 0.0)))
            # Newton where the free Hessian is positive definite, else a gradient
            # step scaled by the curvature magnitudes; flat directions stay put
            lam, vec = np.linalg.eigh(hess[np.ix_(free, free)])
            lam = np.abs(lam)
            proj = vec.T @ g[free]
            d = np.zeros(2)
            d[free] = -vec @ np.divide(proj, lam, out=np.zeros_like(proj), where=lam > 0.0)
            # stationary once the first-order decrease along d is negligible
            if -float(g @ d) <= _NEWTON_TOL * (1.0 + abs(lz)):
                return t, lz, it, True
            step = 1.0
            for _ in range(60):
                trial = np.clip(t + step * d, -half, half)
                lz_new, g_new, hess_new, _ = _log_mass_in_t(ev, summaries, delta, trial)
                if lz_new < lz + 1e-4 * float(g @ (trial - t)):
                    break
                step *= 0.5
            else:
                return t, lz, it, False
            t, lz, g, hess = trial, lz_new, g_new, hess_new
        return t, lz, _NEWTON_MAX_ITER, False

    starts = [np.zeros(2)]
    starts += [np.array([u, v]) for u in (-half, 0.0, half) for v in (-half, 0.0, half) if u or v]
    best_t, best_lz = starts[0], math.inf
    total_iter = 0
    any_converged = False
    for start in starts:
        t, lz, iters, converged = descend(start)
        total_iter += iters
        any_converged = any_converged or converged
        if lz < best_lz:
            best_t, best_lz = t, lz
    assert any_converged

    ap, am = (np.array([s.alpha_n for s in summaries]) + math.sqrt(delta) * np.sin(best_t)).tolist()
    bp, bm = (theorem_beta_envelope(s, delta, a) for s, a in zip(summaries, (ap, am)))
    return ap, am, ev.objective(ap, am, bp, bm), total_iter


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
