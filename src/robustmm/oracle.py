"""Exact transport distances and brute-force moment searches on the line.

These routines deliberately avoid the closed-form moment envelopes. On
the line the quadratic transport cost is attained by the monotone
coupling of quantile functions. w2_squared integrates the squared
quantile gap over the merged cumulative-weight partition; the searches
price whole batches of candidates against one empirical measure through
its integrated quantiles (see _BallSearch), which is the same coupling
integrated exactly per cell. Extremal moments inside a transport ball
are found by direct search over small atomic measures, taking at each
step the best move of a batch that fits the budget. Agreement between
the two routes is what the validation suite certifies.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .moments import SampleSet

_WEIGHT_TOL = 1e-12
# positions per axis of the searches' uniform-weight candidate grid
_GRID_POINTS = 9
# the descent halves its step down to this size
_STEP_TOL = 1e-8

_OBJECTIVES = ("max_mean", "min_mean", "max_second_moment", "min_second_moment")


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
        return cls(atoms=values, weights=(1.0 / n,) * n)

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


def _w2sq_sorted(xp: np.ndarray, cwp: np.ndarray, xq: np.ndarray, cwq: np.ndarray) -> float:
    """Exact squared W2 from sorted atoms and cumulative weights.

    Both quantile functions are constant between consecutive entries of
    the merged cumulative-weight grid, so the integral of the squared
    quantile gap is a finite sum over merged segments.
    """
    ts = np.sort(np.concatenate([cwp, cwq]), kind="stable")
    ip = np.minimum(np.searchsorted(cwp, ts, side="left"), len(xp) - 1)
    iq = np.minimum(np.searchsorted(cwq, ts, side="left"), len(xq) - 1)
    seg = np.diff(ts, prepend=0.0)
    d = xp[ip] - xq[iq]
    return float(np.sum(seg * d * d))


def w2_squared(p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    xp, wp = p._sorted()
    xq, wq = q._sorted()
    return _w2sq_sorted(xp, np.cumsum(wp), xq, np.cumsum(wq))


@dataclass(frozen=True)
class SupportSpec:
    """Search space for atomic candidate measures: m atoms inside [lo, hi]."""

    lo: float
    hi: float
    m: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError("support interval must be finite with lo < hi")
        if not (1 <= self.m <= 6):
            raise ValueError("atom count m must be between 1 and 6")

    @property
    def step(self) -> float:
        """Spacing of the candidate grid, and the descent's first step."""
        return (self.hi - self.lo) / (_GRID_POINTS - 1)

    def grid_rows(self) -> np.ndarray:
        """Every sorted m-atom candidate on the uniform grid over [lo, hi]."""
        return np.linspace(self.lo, self.hi, _GRID_POINTS)[_combinations(_GRID_POINTS, self.m)]


def default_support(empirical: DiscreteMeasure, delta: float) -> SupportSpec:
    """Wide enough to contain any measure within budget delta, with as
    many atoms as the empirical measure, at most six.

    Moving a single atom of weight w by more than sqrt(delta / w) already
    exceeds the budget, so padding by the worst case over atoms suffices.
    """
    x = np.asarray(empirical.atoms)
    w = np.asarray(empirical.weights)
    wmin = float(np.min(w[w > 0])) if np.any(w > 0) else 1.0
    pad = math.sqrt(max(delta, 0.0) / wmin) + 1e-6
    m = min(len(empirical.atoms), 6)
    return SupportSpec(lo=float(np.min(x)) - pad, hi=float(np.max(x)) + pad, m=m)


class _BallSearch:
    """Transport costs from candidate measures to one empirical measure.

    The empirical quantile Qe is a step function, so G(t) = int_0^t Qe and
    H(t) = int_0^t Qe^2 are piecewise linear with knots at the cumulative
    weights. Under the monotone coupling a candidate atom x_j of weight
    w_j meets the cell (c_{j-1}, c_j] of Qe and costs
    w_j x_j^2 - 2 x_j dG_j + dH_j there, exactly. Atoms are measured from
    the empirical mean: the cost is invariant under a common shift, and
    the shift keeps the terms that cancel small.
    """

    def __init__(self, empirical: DiscreteMeasure, delta: float):
        xe, we = empirical._sorted()
        self.xe = xe
        self.we = we
        self.center = float(np.dot(we, xe))
        d = xe - self.center
        self.knots = np.concatenate(([0.0], np.cumsum(we)))
        self.g = np.concatenate(([0.0], np.cumsum(we * d)))
        self.h = np.concatenate(([0.0], np.cumsum(we * d * d)))
        self.budget = float(delta) * (1.0 + 1e-9) + 1e-15

    def cost_batch(self, rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Squared W2 to the empirical measure for each row of atoms.

        rows is k x m, each row in any order; weights is one m-vector
        shared by every row or a k x m array of per-row weights.
        """
        x = rows - self.center
        order = x.argsort(axis=1)
        sel = (np.arange(len(x))[:, None], order)
        x = x[sel]
        w = weights[order] if weights.ndim == 1 else weights[sel]
        # cumulative weights with a leading zero, so that the cell
        # increments are differences of adjacent columns
        cw = np.zeros((len(x), x.shape[1] + 1))
        np.cumsum(w, axis=1, out=cw[:, 1:])
        g = np.interp(cw, self.knots, self.g)
        h = np.interp(cw, self.knots, self.h)
        # atoms far out overflow to an inf cost, which no budget admits
        with np.errstate(over="ignore"):
            return (x * (w * x - 2.0 * (g[:, 1:] - g[:, :-1])) + (h[:, 1:] - h[:, :-1])).sum(axis=1)


def _objective(rows: np.ndarray, weights: np.ndarray, second: bool) -> np.ndarray:
    """Mean, or second moment when second is set, of each row's measure.
    Atoms far out overflow to inf or nan; their inf cost rules them out."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (weights * (rows * rows if second else rows)).sum(axis=-1)


def _best_feasible(
    search: _BallSearch, rows: np.ndarray, weights: np.ndarray, scores: np.ndarray, floor: float
) -> int | None:
    """Index of the highest-scoring row inside the budget among the rows
    scoring above floor; only those rows are priced."""
    idx = (scores > floor).nonzero()[0]
    if idx.size == 0:
        return None
    w = weights if weights.ndim == 1 else weights[idx]
    idx = idx[search.cost_batch(rows[idx], w) <= search.budget]
    if idx.size == 0:
        return None
    return int(idx[np.argmax(scores[idx])])


def moment_range_search(
    empirical: DiscreteMeasure,
    delta: float,
    objective: str,
    alpha: float | None = None,
) -> float:
    """Extremal moment over m-atom measures within squared-W2 budget delta.

    objective is one of max_mean, min_mean, max_second_moment,
    min_second_moment; the second-moment objectives constrain the mean to
    the given alpha. The search runs a grid pass with uniform weights, a
    simplex-grid weight pass (step 0.05) at the best positions, and a
    local descent on atom positions in phases of common translation,
    common dilation and single-atom moves. Each descent step builds all
    of its phase's moves from the current atoms, prices those that
    improve the objective in one batch with the integrated-quantile cost
    of _BallSearch, and takes the best one inside the budget; when none
    fits, the step halves, down to 1e-8.

    Nothing here uses the analytic envelopes, so agreement with them is
    evidence, not tautology.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {_OBJECTIVES}, got {objective!r}")
    if delta < 0:
        raise ValueError("negative radius")
    second = objective in ("max_second_moment", "min_second_moment")
    if second and alpha is None:
        raise ValueError(f"{objective} requires a mean constraint alpha")
    sign = -1.0 if objective.startswith("min") else 1.0
    search = _BallSearch(empirical, delta)
    emp_mean = empirical.mean()

    if second:
        if abs(alpha - emp_mean) > math.sqrt(delta) + 1e-9:
            raise ValueError("no feasible measure")

    support = default_support(empirical, delta)
    m = support.m

    def repair(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        # mean constraint is restored exactly by a common translation
        if second:
            return rows + (alpha - (w * rows).sum(axis=1))[:, None]
        return rows

    # Always-feasible anchor: the empirical measure itself, translated to
    # meet the mean constraint when one is imposed (cost (alpha-mean)^2).
    anchor_w = search.we
    anchor_x = repair(search.xe[None, :], anchor_w)[0]
    anchor_val = float(_objective(anchor_x, anchor_w, second))
    best_x, best_w, best_val = anchor_x, anchor_w, anchor_val

    if delta == 0.0:
        return best_val

    # Pass 1: uniform weights, atom positions on a common grid.
    wu = np.full(m, 1.0 / m)
    rows = repair(support.grid_rows(), wu)
    vals = _objective(rows, wu, second)
    k = _best_feasible(search, rows, wu, sign * vals, sign * best_val)
    if k is not None:
        best_x, best_w, best_val = rows[k], wu, float(vals[k])

    # Pass 2: weight simplex grid (step 0.05) at the best atom positions.
    # Skipped when pass 1 improved nothing: best_x is then the n-atom
    # anchor, not an m-atom candidate, and n can exceed the simplex cap.
    if m > 1 and len(best_x) == m:
        weights = _simplex_grid(m, 20)
        pos = repair(np.broadcast_to(np.sort(best_x), weights.shape), weights)
        vals = _objective(pos, weights, second)
        k = _best_feasible(search, pos, weights, sign * vals, sign * best_val)
        if k is not None:
            best_x, best_w, best_val = pos[k], weights[k], float(vals[k])

    # Pass 3: local descent on positions, run from the best grid candidate
    # and from the anchor. Single-atom moves alone cannot slide along the
    # budget sphere (freeing budget temporarily lowers the objective), so
    # the descent alternates pure phases: common translation to the budget
    # boundary, common dilation about the mean, then single-atom moves.
    def descend(x: np.ndarray, w: np.ndarray, best: float) -> float:
        singles = np.concatenate([np.eye(len(x)), -np.eye(len(x))])

        def translations(x: np.ndarray, step: float) -> np.ndarray:
            return x + np.array([[step], [-step]])

        def dilations(x: np.ndarray, step: float) -> np.ndarray:
            center = alpha if second else float(np.dot(w, x))
            return center + np.array([[1.0 + step], [max(1.0 - step, 0.0)]]) * (x - center)

        def single_moves(x: np.ndarray, step: float) -> np.ndarray:
            return x + step * singles

        phases = (dilations, single_moves) if second else (translations, dilations, single_moves)
        for _ in range(50):
            improved_round = False
            for moves in phases:
                step = support.step
                while step >= _STEP_TOL:
                    cands = repair(moves(x, step), w)
                    vals = _objective(cands, w, second)
                    k = _best_feasible(search, cands, w, sign * vals, sign * best + 1e-15)
                    if k is None:
                        step *= 0.5
                    else:
                        x, best = cands[k], float(vals[k])
                        improved_round = True
            if not improved_round:
                break
        return best

    out = descend(anchor_x, anchor_w, anchor_val)
    if not np.array_equal(best_x, anchor_x) or not np.array_equal(best_w, anchor_w):
        out2 = descend(best_x, best_w, best_val)
        if sign * out2 > sign * out:
            out = out2
    return out


@functools.cache
def _combinations(points: int, m: int) -> np.ndarray:
    """Index rows of every m-element multiset of range(points), sorted."""
    idx = np.array(list(combinations_with_replacement(range(points), m)), dtype=np.intp)
    idx.setflags(write=False)
    return idx


@functools.cache
def _simplex_grid(m: int, parts: int) -> np.ndarray:
    """All weight vectors with entries k/parts summing to one."""
    rows = np.array([
        np.bincount(combo, minlength=m) / parts
        for combo in combinations_with_replacement(range(m), parts)
    ])
    rows.setflags(write=False)
    return rows


def min_cost_given_moments(
    empirical: DiscreteMeasure,
    alpha: float,
    beta: float,
) -> float:
    """Smallest squared W2 to any m-atom measure with mean alpha and
    second moment beta; diagnostic companion to the profile formula.

    Candidates are repaired onto the moment pair by the affine map
    x -> a x + b (a from the variance ratio, b from the mean), and
    priced with the integrated-quantile cost of _BallSearch. The grid
    and the empirical anchor are priced in one batch each; the descent
    then builds all 2m single-atom moves from the current atoms, prices
    them in one batch and takes the cheapest when it lowers the cost,
    halving the step otherwise, down to 1e-8 or 200 000 priced moves.
    """
    if beta < alpha * alpha - 1e-12:
        raise ValueError("no feasible measure")
    span = max(abs(alpha), math.sqrt(max(beta, 0.0)), 1.0)
    support = SupportSpec(lo=-4.0 * span, hi=4.0 * span, m=min(len(empirical.atoms), 6))
    target_var = max(beta - alpha * alpha, 0.0)

    def repair(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
        # rows with no spread cannot be scaled to a positive variance
        dev = rows - (w * rows).sum(axis=1)[:, None]
        var = (w * dev * dev).sum(axis=1)
        spread = var > 0
        scale = np.sqrt(target_var / np.where(spread, var, 1.0)) * spread
        fixed = alpha + scale[:, None] * dev
        return fixed[spread] if target_var > 1e-15 else fixed

    search = _BallSearch(empirical, 0.0)

    best_cost = math.inf
    x = w = None
    wu = np.full(support.m, 1.0 / support.m)
    for rows, weights in (
        (support.grid_rows(), wu),
        (search.xe[None, :], search.we),
    ):
        rows = repair(rows, weights)
        if len(rows):
            costs = search.cost_batch(rows, weights)
            k = int(np.argmin(costs))
            if costs[k] < best_cost:
                best_cost, x, w = float(costs[k]), rows[k], weights
    if x is None:
        raise ValueError("no feasible measure")

    singles = np.concatenate([np.eye(len(x)), -np.eye(len(x))])
    step = support.step
    evals = 0
    while step >= _STEP_TOL and evals < 200_000:
        cands = repair(x + step * singles, w)
        evals += len(cands)
        if len(cands):
            costs = search.cost_batch(cands, w)
            k = int(np.argmin(costs))
            if costs[k] < best_cost - 1e-18:
                best_cost, x = float(costs[k]), cands[k]
                continue
        step *= 0.5
    return best_cost
