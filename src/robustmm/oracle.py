"""Exact transport distances and extremal moments over transport balls on the line.

These routines deliberately avoid the closed-form moment envelopes. On
the line the quadratic transport cost is attained by the monotone
coupling of quantile functions, and w2_squared integrates the squared
quantile gap over the merged cumulative-weight partition. Extremal
moments inside a transport ball are bracketed by weak duality over
couplings (moment_range_search): any multipliers give a bound on the
extremum, and the per-atom maximizers at those multipliers form a
measure whose w2_squared price puts it inside the ball, so its moment is
attained. The one exception is the ball's edge, where the witness is the
sample translated to the mean constraint: its true cost is within the
radius, but w2_squared may price it a rounding above. A closed form
outside the bracket is a proven error; that is
what the validation suite certifies. A measure sorts its atoms once, and
moment_range_search brackets a side's rows in one array pass over them,
pricing each witness it tries on the sorted arrays. The cheapest move
onto given moments is exact (min_cost_given_moments).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .moments import SampleSet, check_radius

_WEIGHT_TOL = 1e-12

# objective: (p, b), the witness maximizing E[p U^2 + b U] over laws U of
# the centered coordinate; the min objectives maximize the negated moment
_OBJECTIVES = {"max_mean": (0.0, 1.0), "min_mean": (0.0, -1.0),
               "max_second_moment": (1.0, 0.0), "min_second_moment": (-1.0, 0.0)}

# fractions of the way back to the anchor that the witness pull tries in
# turn: none, then doubling from one unit in the last place to the anchor
_PULL = np.concatenate(([0.0], 2.0 ** np.arange(-52, 1)))

_OVERFLOW = "moment bracket leaves the float range"


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on the line."""

    atoms: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        atoms = tuple(float(a) for a in self.atoms)
        weights = tuple(float(w) for w in self.weights)
        if len(atoms) != len(weights):
            raise ValueError("atoms and weights must have equal length")
        if len(atoms) == 0:
            raise ValueError("measure needs at least one atom")
        if not all(math.isfinite(a) for a in atoms):
            raise ValueError("atoms must be finite")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be nonnegative")
        if abs(sum(weights) - 1.0) > _WEIGHT_TOL:
            raise ValueError("weights must sum to one")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def from_points(cls, values) -> "DiscreteMeasure":
        """Uniform weights on the given points."""
        values = tuple(float(v) for v in values)
        n = len(values)
        return cls(atoms=values, weights=(1.0 / max(n, 1),) * n)

    @classmethod
    def from_samples(cls, samples: SampleSet) -> "DiscreteMeasure":
        return cls.from_points(samples.values)

    def mean(self) -> float:
        return float(np.dot(self.weights, self.atoms))

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Atoms in stable ascending order, their weights and cumulative weights."""
        x = np.asarray(self.atoms, dtype=float)
        order = np.argsort(x, kind="stable")
        w = np.asarray(self.weights, dtype=float)[order]
        return x[order], w, np.cumsum(w)


def w2_squared(p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """Exact squared W2 between two finitely supported measures.

    Both quantile functions are constant between consecutive entries of
    the merged cumulative-weight grid, so the integral of the squared
    quantile gap is a finite sum over merged segments.
    """
    xp, wp, cwp = p._sorted
    return float(_price(xp[None], wp, q, _merge(cwp, q))[0])


def _merge(cwp: np.ndarray, q: DiscreteMeasure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merged grid of cumulative weights cwp and q's: segment lengths, p's atom index, q's atom."""
    xq, _, cwq = q._sorted
    ts = np.sort(np.concatenate([cwp, cwq]), kind="stable")
    ip = np.minimum(np.searchsorted(cwp, ts, side="left"), len(cwp) - 1)
    iq = np.minimum(np.searchsorted(cwq, ts, side="left"), len(cwq) - 1)
    return ts - np.concatenate(([0.0], ts[:-1])), ip, xq[iq]


def _price(y: np.ndarray, w: np.ndarray, q: DiscreteMeasure, grid) -> np.ndarray:
    """w2_squared to q from each row of atoms y on weights w, where grid is
    the merged grid of w's cumulative weights and q's."""
    if not (y[:, 1:] >= y[:, :-1]).all():
        # rounding put some row's atoms out of the sample's order
        return np.concatenate([_price(row[order][None], w[order], q, _merge(np.cumsum(w[order]), q))
                               for row, order in zip(y, np.argsort(y, axis=-1, kind="stable"))])
    seg, ip, xq = grid
    # take keeps the rows in C order, so that each sums as one row alone does
    d = y.take(ip, axis=-1) - xq
    return np.sum(seg * d * d, axis=-1)


def _dots(w: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """np.dot(w, row) for each row, as a column (a matrix product differs in the last bit)."""
    return np.array([np.dot(w, row) for row in rows])[:, None]


def moment_range_search(empirical: DiscreteMeasure, delta: float, objectives: list[str],
                        alphas: list[float | None]) -> list[tuple[float, float]]:
    """Bracket extremal moments over the ball of squared W2 radius delta.

    objectives and alphas are equal-length lists, one row each. An objective
    is max_mean, min_mean, max_second_moment or min_second_moment; the
    second-moment objectives fix the mean at the row's alpha (None on the
    mean rows). The rows share one sort of the atoms and one array pass over
    them. Each row gives (value, bound) with the extremum between them.
    value is the moment of a witness measure that w2_squared prices within
    delta, except on the edge (below), where the price may exceed delta by
    rounding.
    bound is the weak-duality value over couplings

        lam delta + mu a + sum_i w_i sup_u [phi(u) - mu u - lam (u - d_i)^2]

    with phi = +-u or +-u^2, atoms d_i = x_i - c centered at the sample
    mean c and a = alpha - c (a = mu = 0 for the mean objectives). Each sup
    is a concave quadratic, so it is closed-form, and the bound holds for
    any mu and any lam >= 0 past the curvature of phi. The multipliers here
    solve the stationarity conditions, where strong duality (Gao &
    Kleywegt 2016, arXiv:1604.02199) closes the bracket up to rounding.

    The witness is made of the per-atom maximizers: the sample moved by
    +-sqrt(delta) for the mean, a + (1 + r / s) d for the largest second
    moment and a + max(1 - r / s, 0) d for the smallest, with s the sample
    standard deviation and r^2 = delta - a^2; a point mass (s = 0) splits
    into halves at a +- r. It is translated to mean a, then pulled toward
    the sample translated to a until w2_squared prices it within delta.
    Within 1e-12 (1 + |c|) of the ball's edge the witness is the sample
    translated to a, and an alpha that far outside counts as on the edge.
    Its true cost a^2 is at most delta, but w2_squared prices the rounded
    translation, which may come out above delta: the root of that price
    exceeds sqrt(delta) by less than eps (max |x_i| + sqrt(delta)), with eps
    the float spacing at 1.
    Nothing here uses the analytic envelopes, so agreement with them is
    evidence, not tautology.
    """
    return [row[2:] for row in _bracket(empirical, delta, objectives, alphas)]


def _bracket(empirical: DiscreteMeasure, delta: float, objectives: list[str],
             alphas: list[float | None]) -> list[tuple[np.ndarray, np.ndarray, float, float]]:
    """Per row of moment_range_search: the witness atoms and weights, value and bound."""
    if not objectives or len(objectives) != len(alphas):
        raise ValueError("objectives and alphas must be non-empty lists of equal length, "
                         f"got {len(objectives)} and {len(alphas)}")
    for objective, alpha in zip(objectives, alphas):
        if objective not in _OBJECTIVES:
            raise ValueError(f"objective must be one of {tuple(_OBJECTIVES)}, got {objective!r}")
        if objective.endswith("second_moment") and (alpha is None or not math.isfinite(alpha)):
            raise ValueError(f"{objective} requires a finite mean constraint alpha, got {alpha!r}")
    check_radius(delta)
    x, w, _ = empirical._sorted
    x, w = x[w > 0], w[w > 0]
    # an atom of weight w moves up to sqrt(delta / w) inside the ball, and
    # w2_squared squares each gap before weighting it
    reach = float(x[-1]) - float(x[0]) + 2.0 * math.sqrt(delta / float(np.min(w)))
    if not math.isfinite(reach * reach):
        raise ValueError(_OVERFLOW)
    # center twice, so that equal atoms get deviations of exactly zero
    center = float(np.dot(w, x))
    center += float(np.dot(w, x - center))
    d = x - center
    # a row per objective, so that p, b, alpha and each multiplier are
    # columns; a mean row's alpha is the center, so its a is 0
    p, b = np.array([_OBJECTIVES[o] for o in objectives]).T[:, :, None]
    second = p != 0.0
    alpha = np.array([[al if sec else center] for al, sec in zip(alphas, second[:, 0])])
    a = alpha - center
    # alpha and center carry rounding relative to the mean: within that
    # slack outside the ball's edge alpha counts as on it
    edge = math.sqrt(delta)
    slack = 1e-12 * (1.0 + abs(center))
    if (np.abs(a) > edge + slack).any():
        raise ValueError("no feasible measure")
    a = np.minimum(np.maximum(a, -edge), edge)
    anchor = d + a
    # at rr = delta - a^2 = 0 (delta = 0, alpha on the edge) the sample translated to alpha is the
    # witness, and its moment the bound. Within the slack inside the edge it is the witness too: a
    # pull there moves atoms about sqrt(rr), which w2_squared's rounding can take past the ball
    inner = delta - a * a > 0.0
    pulled = inner & ~(second & (np.abs(a) >= edge - slack))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        const = np.where(second, p * (alpha * alpha - a * a), b * center)
        r = np.sqrt(delta - a * a)
        s = math.sqrt(float(np.dot(w, d * d)))
        # k = lam - p > 0 is the curvature of each per-atom sup, and
        # mu = -2 a k centers its maximizers u on a
        k = np.where(p == 0.0, 0.5 / r, np.maximum(s / r, np.where(p > 0.0, math.ulp(0.0), 1.0)))
        lam = k + p
        u = np.where(inner, a + (0.5 * b + lam * d) / k, anchor)
        # each sup, k u^2 - lam d^2, factored as k (u - d)(u + d) - p d^2
        # so that no two terms of size lam d^2 cancel
        sups = (k * a + 0.5 * b + p * d) * (u + d) - p * d * d
        bound = const + lam * delta - 2.0 * k * a * a + _dots(w, sups)
        u = np.where(pulled, u, anchor)
        # a point mass ties every position at lam = 1: the largest second
        # moment splits each atom into halves at a +- r
        split = (pulled & (p > 0.0) & (s == 0.0))[:, 0]
        groups = [(~split, x, d, w, u, anchor)]
        if split.any():
            x2, d2, w2 = np.repeat(x, 2), np.repeat(d, 2), np.repeat(0.5 * w, 2)
            groups.append((split, x2, d2, w2, d2 + a + r * np.resize((1.0, -1.0), len(d2)), d2 + a))
        witnesses, values = {}, np.empty(len(p))
        for rows, x, d, w, u, anchor in groups:
            rows = np.flatnonzero(rows)
            u, anchor = u[rows], anchor[rows]
            u = np.where((second & pulled)[rows], u + (a[rows] - _dots(w, u)), u)
            atoms = u + 0.0 * (anchor - u)
            # pull each row by the fractions _PULL toward its anchor until it is priced
            # within delta, as moves of the sample's own atoms, so a zero move costs 0
            pulling = np.flatnonzero(pulled[rows, 0])
            grid = _merge(np.cumsum(w), empirical) if len(pulling) else None
            for back in _PULL[1:]:
                if len(pulling) == 0:
                    break
                pulling = pulling[~(_price(x + (atoms[pulling] - d), w, empirical, grid) <= delta)]
                atoms[pulling] = u[pulling] + back * (anchor[pulling] - u[pulling])
            values[rows] = (const[rows] + _dots(w, (p[rows] * atoms + b[rows]) * atoms))[:, 0]
            witnesses.update((i, (witness, w)) for i, witness in zip(rows, x + (atoms - d)))
    bounds = np.where(inner[:, 0], bound[:, 0], values)
    if not (np.isfinite(values).all() and np.isfinite(bounds).all()):
        raise ValueError(_OVERFLOW)
    signs = [-1.0 if objective.startswith("min") else 1.0 for objective in objectives]
    return [(*witnesses[i], sign * float(value), sign * float(bound))
            for i, (value, bound, sign) in enumerate(zip(values, bounds, signs))]


def min_cost_given_moments(
    empirical: DiscreteMeasure,
    alpha: float,
    beta: float,
) -> float:
    """Smallest squared W2 from the empirical measure to any measure with
    mean alpha and second moment beta; diagnostic companion to the
    profile formula.

    On the line this is (alpha - alpha_n)^2 + (sigma - sigma_n)^2, with
    sigma^2 = beta - alpha^2 (Gelbrich 1990, Math. Nachr. 147): any
    coupling has E(X - Y)^2 = (alpha - alpha_n)^2 + sigma^2 + sigma_n^2
    - 2 cov(X, Y) and cov(X, Y) <= sigma sigma_n, and the monotone affine
    push x -> alpha + (sigma / sigma_n)(x - alpha_n) attains the bound.
    """
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise ValueError("target moments must be finite")
    if beta < alpha * alpha - 1e-12:
        raise ValueError("no feasible measure")
    mean = empirical.mean()
    dev = np.asarray(empirical.atoms) - mean
    sd_n = math.sqrt(float(np.dot(empirical.weights, dev * dev)))
    sd = math.sqrt(max(beta - alpha * alpha, 0.0))
    return (alpha - mean) ** 2 + (sd - sd_n) ** 2
