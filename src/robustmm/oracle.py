"""Exact transport distances and extremal moments over transport balls on the line.

These routines deliberately avoid the closed-form moment envelopes. On
the line the quadratic transport cost is attained by the monotone
coupling of quantile functions, and w2_squared integrates the squared
quantile gap over the merged cumulative-weight partition. Extremal
moments inside a transport ball are bracketed by weak duality over
couplings (moment_range_search): any multipliers give a bound on the
extremum, and the per-atom maximizers at those multipliers form a
measure whose w2_squared price puts it inside the ball, so its moment is
attained. A closed form outside the bracket is a proven error; that is
what the validation suite certifies. The cheapest move onto given
moments is exact (min_cost_given_moments).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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

    def second_moment(self) -> float:
        x = np.asarray(self.atoms)
        return float(np.dot(self.weights, x * x))

    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(self.atoms, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        order = np.argsort(x, kind="stable")
        return x[order], w[order]


def w2_squared(p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """Exact squared W2 between two finitely supported measures.

    Both quantile functions are constant between consecutive entries of
    the merged cumulative-weight grid, so the integral of the squared
    quantile gap is a finite sum over merged segments.
    """
    xp, wp = p._sorted()
    xq, wq = q._sorted()
    cwp, cwq = np.cumsum(wp), np.cumsum(wq)
    ts = np.sort(np.concatenate([cwp, cwq]), kind="stable")
    ip = np.minimum(np.searchsorted(cwp, ts, side="left"), len(xp) - 1)
    iq = np.minimum(np.searchsorted(cwq, ts, side="left"), len(xq) - 1)
    seg = np.diff(ts, prepend=0.0)
    d = xp[ip] - xq[iq]
    return float(np.sum(seg * d * d))


def moment_range_search(
    empirical: DiscreteMeasure,
    delta: float,
    objective: str,
    alpha: float | None = None,
) -> tuple[float, float]:
    """Bracket an extremal moment over the ball of squared W2 radius delta.

    objective is max_mean, min_mean, max_second_moment or
    min_second_moment; the second-moment objectives fix the mean at alpha.
    Returns (value, bound) with the extremum between them. value is the
    moment of a witness measure that w2_squared prices within delta.
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
    Nothing here uses the analytic envelopes, so agreement with them is
    evidence, not tautology.
    """
    _, value, bound = _bracket(empirical, delta, objective, alpha)
    return value, bound


def _bracket(
    empirical: DiscreteMeasure, delta: float, objective: str, alpha: float | None
) -> tuple[DiscreteMeasure, float, float]:
    """The witness measure of moment_range_search with its (value, bound)."""
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {tuple(_OBJECTIVES)}, got {objective!r}")
    check_radius(delta)
    second = objective.endswith("second_moment")
    if second and (alpha is None or not math.isfinite(alpha)):
        raise ValueError(f"{objective} requires a finite mean constraint alpha, got {alpha!r}")
    x, w = empirical._sorted()
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
    a = alpha - center if second else 0.0
    # alpha and center carry rounding relative to the mean: within that
    # slack alpha counts as on the ball's edge
    edge = math.sqrt(delta)
    if abs(a) > edge + 1e-12 * (1.0 + abs(center)):
        raise ValueError("no feasible measure")
    a = min(max(a, -edge), edge)
    p, b = _OBJECTIVES[objective]
    const = p * (alpha * alpha - a * a) if second else b * center
    anchor = d + a
    rr = delta - a * a
    with np.errstate(over="ignore", invalid="ignore"):
        # delta = 0, or alpha on the ball's edge: only the sample translated
        # to alpha is left, and that is the witness
        u = anchor
        if rr > 0.0:
            r = math.sqrt(rr)
            s = math.sqrt(float(np.dot(w, d * d)))
            # k = lam - p > 0 is the curvature of each per-atom sup, and
            # mu = -2 a k centers its maximizers u on a
            if p == 0.0:
                k = lam = 0.5 / r
            elif p > 0.0:
                k = max(s / r, math.ulp(0.0))
                lam = k + 1.0
            else:
                k = max(s / r, 1.0)
                lam = k - 1.0
            u = a + (0.5 * b + lam * d) / k
            # each sup, k u^2 - lam d^2, factored as k (u - d)(u + d) - p d^2
            # so that no two terms of size lam d^2 cancel
            sups = (k * a + 0.5 * b + p * d) * (u + d) - p * d * d
            bound = const + lam * delta - 2.0 * k * a * a + float(np.dot(w, sups))
            if p > 0.0 and s == 0.0:
                # a point mass ties every position at lam = 1: split each
                # atom into halves at a +- r
                x, d, w = np.repeat(x, 2), np.repeat(d, 2), np.repeat(0.5 * w, 2)
                anchor = d + a
                u = anchor + r * np.resize((1.0, -1.0), len(d))
            if second:
                u = u + (a - float(np.dot(w, u)))
        for back in _PULL if rr > 0.0 else (0.0,):
            atoms = u + back * (anchor - u)
            # priced as moves of the sample's own atoms, so a zero move costs 0
            witness = DiscreteMeasure(tuple(x + (atoms - d)), tuple(w))
            if w2_squared(witness, empirical) <= delta:
                break
        value = const + float(np.dot(w, (p * atoms + b) * atoms))
    bound = value if rr <= 0.0 else bound
    if not (math.isfinite(value) and math.isfinite(bound)):
        raise ValueError(_OVERFLOW)
    sign = -1.0 if objective.startswith("min") else 1.0
    return witness, sign * value, sign * bound


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
