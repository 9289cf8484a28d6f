"""Exact transport distances and brute-force moment searches on the line.

These routines deliberately avoid the closed-form moment envelopes. On
the line the quadratic transport cost is attained by the monotone
coupling of quantile functions. w2_squared integrates the squared
quantile gap over the merged cumulative-weight partition; the search
prices whole batches of candidates against one empirical measure through
its integrated quantiles (see _BallSearch), which is the same coupling
integrated exactly per cell. Extremal moments inside a transport ball
are found by direct search over small atomic measures, taking at each
step the best move of a batch that fits the budget. Agreement between
the two routes is what the validation suite certifies. The cheapest
move onto given moments is exact (min_cost_given_moments).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .moments import SampleSet, check_radius

_WEIGHT_TOL = 1e-12
# positions per axis of the search's uniform-weight candidate grid
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
    check_radius(delta)
    second = objective in ("max_second_moment", "min_second_moment")
    if second and (alpha is None or not math.isfinite(alpha)):
        raise ValueError(f"{objective} requires a finite mean constraint alpha, got {alpha!r}")
    sign = -1.0 if objective.startswith("min") else 1.0
    search = _BallSearch(empirical, delta)
    emp_mean = empirical.mean()

    if second and abs(alpha - emp_mean) > math.sqrt(delta) + 1e-9:
        raise ValueError("no feasible measure")

    # Candidates: m atoms, at most six, inside [lo, hi]. Moving an atom of
    # weight w by more than sqrt(delta / w) already exceeds the budget, so
    # padding by the worst case over atoms contains every measure in the ball.
    pad = math.sqrt(delta / float(np.min(search.we[search.we > 0]))) + 1e-6
    lo, hi = float(search.xe[0]) - pad, float(search.xe[-1]) + pad
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError("support interval must be finite with lo < hi")
    m = min(len(empirical.atoms), 6)
    first_step = (hi - lo) / (_GRID_POINTS - 1)

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
    rows = repair(np.linspace(lo, hi, _GRID_POINTS)[_combinations(_GRID_POINTS, m)], wu)
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
                step = first_step
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
