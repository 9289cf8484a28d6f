"""Robust inner problem and the entropy-regularized quoting policy.

The market maker posts half-spreads (eps_plus, eps_minus) drawn from a
density pi on [0, eps_max]^2. With fill sensitivities h and baseline
flows f, a side's mean fill at innovation moments (a, b) is m = f + a h
with variance v h^2, v = b - a^2. Cash and inventory bookkeeping give
the expected reward E[cash] - eta E[inventory^2] at a spread pair, and
entropy regularization at temperature gamma makes the optimal policy a
Gibbs density proportional to M(eps) = exp(exponent), where

    gamma * exponent = (S + eps+) m+ - (S - eps-) m-
                       - eta [ (Q + m+ - m-)^2 + v+ h+^2 + v- h-^2 ]

uses independence of the two sides. The a^2 h^2 of the squared inventory
cancels against v h^2, so the exponent is affine in the moments
x = (a+, a-, b+, b-, c = a+ a-). It splits as A(eps+) + B(eps-) + C(eps+) D(eps-),

    A = A0 + a+ Ap + b+ Bp,  B = B0 + a- Am + b- Bm,  C = C0 + a+ Cp,  D = D0 + a- Dm,

with C = 2 eta (Q + m+) / gamma and D = m-, so every table lives on one
spread axis, and log Z = log integral(M) is a log-sum-exp of functions
affine in x, convex in x. The adversary picks the moments inside per-side
transport balls; the worst case pins each second moment at its envelope
and minimizes log Z over a box of means, certified by a Frank-Wolfe gap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .functions import FunctionSpec
from .moments import EmpiricalSummary, check_radius, theorem_beta_envelope

_GRID_N_MAX = 2049
_LOG_MAX_FLOAT = math.log(np.finfo(float).max)
# a Newton run stops once the first-order decrease along its step is below
# _NEWTON_TOL * (1 + |log Z|); the runs of a solve share _NEWTON_MAX_ITER steps
_NEWTON_TOL = 1e-9
_NEWTON_MAX_ITER = 500
# buckets of the sampler's guide table; a power of two keeps u * m and k / m exact
_GUIDE_SIZE = 1 << 16
# grid nodes per chunk of objective rows, a cache-sized table
_CHUNK_NODES = 100_000


class SolverError(RuntimeError):
    """Inner maximization failed to converge; carries the best iterate."""

    def __init__(self, message: str, best: "RobustSolution | None" = None):
        super().__init__(message)
        self.best = best


class DegeneratePolicyError(RuntimeError):
    pass


@dataclass(frozen=True)
class SpreadModel:
    """Market making primitives: mid price S, inventory Q, inventory
    penalty eta, entropy temperature gamma, and the four flow curves."""

    S: float
    Q: float
    eta: float
    gamma: float
    f_plus: FunctionSpec
    f_minus: FunctionSpec
    h_plus: FunctionSpec
    h_minus: FunctionSpec

    def __post_init__(self) -> None:
        for name in ("S", "Q", "eta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        # messages start with the field name, which the config reports
        if self.gamma <= 0:
            raise ValueError("gamma must be positive (the entropy temperature)")
        if self.eta < 0:
            raise ValueError("eta must be nonnegative (the inventory penalty)")


@dataclass(frozen=True)
class SpreadDomain:
    """Tensor-product trapezoid rule over the spread square [0, eps_max]^2."""

    eps_max: float
    grid_n: int = 257

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps_max) and self.eps_max > 0):
            raise ValueError("eps_max must be positive")
        if not 16 <= self.grid_n <= _GRID_N_MAX:
            # traced at the cap, a solve peaks at one grid_n^2 float table (34 MB)
            # and build_policy at four (135 MB)
            raise ValueError(f"grid_n must be between 16 and {_GRID_N_MAX}, got {self.grid_n}")
        # node weights are products of two axis weights, each within a factor 2 of the cell
        lo, hi = self.eps_max / (2 * self.grid_n), 2 * self.eps_max / self.grid_n
        if not (lo * lo > np.finfo(float).tiny and hi * hi < math.inf):
            raise ValueError(f"eps_max {self.eps_max!r} is out of range: the cell areas under- or overflow")

    @cached_property
    def axis_nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.eps_max, self.grid_n)

    @cached_property
    def axis_weights(self) -> np.ndarray:
        step = self.eps_max / (self.grid_n - 1)
        w = np.full(self.grid_n, step)
        w[0] = w[-1] = step / 2.0
        return w

    @cached_property
    def cell_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node cells tiling [0, eps_max], split at the midpoints between
        nodes; the cell lengths equal the weights."""
        x = self.axis_nodes
        seams = (x[:-1] + x[1:]) / 2.0
        return np.concatenate(([0.0], seams)), np.concatenate((seams, [self.eps_max]))

    @cached_property
    def weights(self) -> np.ndarray:
        """Node weights of the 2-D rule, the tensor product of axis_weights."""
        w = self.axis_weights
        return w[:, None] * w[None, :]


def validate_model_on_domain(model: SpreadModel, domain: SpreadDomain) -> None:
    """f and h must be finite on [0, eps_max] and h nonnegative there."""
    eps = np.array([0.0, domain.eps_max])  # every kind is monotone in eps, so the ends decide
    for name in ("f_plus", "f_minus", "h_plus", "h_minus"):
        # a curve that overflows is reported below, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(getattr(model, name)(eps), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{name} is not finite on [0, eps_max]")
        if name.startswith("h") and np.any(vals < 0):
            raise ValueError(f"{name} must be nonnegative on [0, eps_max]")


class _GridEvaluator:
    """Per-axis coefficients of the Gibbs exponent on a domain, read off each side's
    (price m - eta (u^2 + v h^2)) / gamma with signed price S + eps+ or eps- - S and
    inventory u = Q + m+ or m-, and the axis log weights. Only gibbs forms tables
    over the square, a row or a chunk at a time."""

    def __init__(self, model: SpreadModel, domain: SpreadDomain):
        self.model = model
        x, eta, gamma = domain.axis_nodes, model.eta, model.gamma
        # extreme inputs can overflow to inf here; gibbs checks the exponent
        with np.errstate(over="ignore", invalid="ignore"):
            fp, hp, fm, hm = (np.asarray(c(x), dtype=float)
                              for c in (model.f_plus, model.h_plus, model.f_minus, model.h_minus))
            pp, up, pm = model.S + x, model.Q + fp, x - model.S
            self.A0, self.Ap, self.Bp = ((pp * fp - eta * up * up) / gamma, (pp - 2.0 * eta * up) * hp / gamma,
                                         -eta * hp * hp / gamma)
            self.B0, self.Am, self.Bm = ((pm * fm - eta * fm * fm) / gamma, (pm - 2.0 * eta * fm) * hm / gamma,
                                         -eta * hm * hm / gamma)
            self.C0, self.Cp, self.D0, self.Dm = 2.0 * eta / gamma * up, 2.0 * eta / gamma * hp, fm, hm
        self.logw = np.log(domain.axis_weights)

    def linear(self, ap, am, bp, bm) -> tuple[np.ndarray, ...]:
        """(A, B, C, D) less their constants (A0, B0, C0, D0): along a path of
        moments, the tables' t-derivatives are these at the moments' derivatives.
        Callers ignore the floating-point overflow that extreme inputs raise."""
        return ap * self.Ap + bp * self.Bp, am * self.Am + bm * self.Bm, ap * self.Cp, am * self.Dm

    def tables(self, ap, am, bp, bm) -> tuple[np.ndarray, ...]:
        """(A, B, C, D) at moments (a, b) per side: one row for scalar
        moments, a row per entry for 1-D arrays of them."""
        ap, am, bp, bm = (np.asarray(v, dtype=float)[..., None] for v in (ap, am, bp, bm))
        with np.errstate(over="ignore", invalid="ignore"):
            return tuple(c + v for c, v in zip((self.A0, self.B0, self.C0, self.D0), self.linear(ap, am, bp, bm)))

    def gibbs(self, A, B, C, D) -> tuple[np.ndarray, np.ndarray]:
        """log Z and the normalized Gibbs weights exp(exponent) * w / Z of the
        exponent A_i + B_j + C_i D_j per row: A and C run over the eps+ nodes,
        B and D over the eps- nodes, on the last axis. A row that is -inf at
        every node has log Z = -inf and zero weights."""
        with np.errstate(over="ignore", invalid="ignore"):
            e = C[..., :, None] * D[..., None, :]
            e += (A + self.logw)[..., :, None]
            e += (B + self.logw)[..., None, :]
        m = np.max(e, axis=(-2, -1), keepdims=True)
        # a nan or +inf term, of the exponent or after its log weight, is its row's max
        if not np.all(m < math.inf):
            raise ValueError("integrand overflow")
        e -= np.where(m == -math.inf, 0.0, m)
        p = np.exp(e, out=e)
        # the largest shifted term is exp(0) = 1, so only a row that is -inf
        # everywhere sums to 0; dividing it by 1 keeps its weights and log Z
        total = np.sum(p, axis=(-2, -1), keepdims=True)
        total[total == 0.0] = 1.0
        p /= total
        return (m + np.log(total))[..., 0, 0], p

    def objective(self, ap, am, bp, bm):
        """-gamma * integral of M over the spread square at paired moments:
        a float for scalar moments, else an array of their broadcast shape.

        +inf or nan exponents mean the integrand itself overflowed; -inf
        is a vanishing integrand and gives -0.0.
        """
        ap, am, bp, bm = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (ap, am, bp, bm)))
        tabs = self.tables(*(v.ravel() for v in (ap, am, bp, bm)))
        chunk = max(1, _CHUNK_NODES // len(self.logw) ** 2)
        lz = np.concatenate([np.empty(0)] + [self.gibbs(*(v[s : s + chunk] for v in tabs))[0]
                                             for s in range(0, ap.size, chunk)])
        with np.errstate(over="ignore"):
            out = (-self.model.gamma * np.exp(lz)).reshape(ap.shape)
        if not np.all(np.isfinite(out)):
            # finite exponents, unrepresentable objective
            raise ValueError("integrand overflow")
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class RobustSolution:
    """Adversarial moments and the worst-case objective they attain."""

    alpha_star_plus: float
    alpha_star_minus: float
    beta_star_plus: float
    beta_star_minus: float
    objective: float
    concave_certificate: bool
    iterations: int
    optimality_gap: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.objective):
            raise ValueError("objective must be finite")


def concavity_check(summaries: tuple[EmpiricalSummary, EmpiricalSummary], delta: float) -> bool:
    """Certificate var+ * var- >= delta^2 under which the inner problem
    (moments eliminated via the envelopes) is concave over the mean box."""
    sp, sm = summaries
    return sp.variance * sm.variance >= delta * delta


def worst_case_objective(
    model: SpreadModel, domain: SpreadDomain, summaries: tuple[EmpiricalSummary, EmpiricalSummary], delta: float,
    alpha_plus, alpha_minus,
):
    """Objective -gamma * integral(M) with second moments pinned at their
    adversarial envelopes for the given means: scalar means give a float,
    arrays of paired means an array."""
    sp, sm = summaries
    bp = theorem_beta_envelope(sp, delta, alpha_plus)
    bm = theorem_beta_envelope(sm, delta, alpha_minus)
    return _GridEvaluator(model, domain).objective(alpha_plus, alpha_minus, bp, bm)


def _log_mass_in_t(ev: _GridEvaluator, summaries: tuple[EmpiricalSummary, EmpiricalSummary],
                   delta: float, t: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """log Z on the pinned envelope, with its exact gradient and Hessian in t
    and its gradient in the moments x = (a+, a-, b+, b-, c = a+ a-), from one
    grid pass. With r = sqrt(delta) each side has mean a = alpha_n + r sin t
    and variance sd^2, sd = sd_n + r cos t, so b = sd^2 + a^2. The tables are
    affine in (a, b), so their t-derivatives are their linear parts at
    a' = r cos t, b' = 2 r (a cos t - sd sin t) and a'' = -r sin t,
    b'' = 2 r (r - a sin t - sd cos t). g = E[de] and H = E[d2e] + Cov(de) under
    the Gibbs weights p are bilinear forms x p y of per-axis vectors, read off one
    product of p with stacked eps- vectors. Extreme radii overflow them."""
    r, sin, cos = math.sqrt(delta), np.sin(t), np.cos(t)
    with np.errstate(over="ignore", invalid="ignore"):
        a = np.array([s.alpha_n for s in summaries]) + r * sin
        sd = np.array([math.sqrt(s.variance) for s in summaries]) + r * cos
        A, B, C, D = ev.tables(*a, *(sd * sd + a * a))
        A1, B1, C1, D1 = ev.linear(*(r * cos), *(2.0 * r * (a * cos - sd * sin)))
        A2, B2, C2, D2 = ev.linear(*(-r * sin), *(2.0 * r * (r - a * sin - sd * cos)))
        # the exponent is A + B + C D, so de+ = A1 + C1 D, de- = B1 + C D1 and
        # d2e = (A2 + C2 D, C1 D1, B2 + C D2) on every node
        lz, p = ev.gibbs(A, B, C, D)
        y1, yd, ydd, yb, yd1, yd1d1, ybb, ydb, ycross, ydd1 = (p @ np.stack(
            [np.ones_like(D), D, D * D, B1, D1, D1 * D1, B2 + B1 * B1, D2 + 2.0 * B1 * D1, D1 + D * B1, D * D1],
            axis=1)).T
        g = np.array([A1 @ y1 + C1 @ yd, yb.sum() + C @ yd1])
        # E[d2e + de de'] per entry, then less g g'; each eps+ product takes its
        # weight first, so terms of vanishing weight cannot overflow
        hpp = A2 @ y1 + C2 @ yd + A1 @ (A1 * y1 + 2.0 * C1 * yd) + C1 @ (C1 * ydd)
        hmm = ybb.sum() + C @ (ydb + C * yd1d1)
        hpm = A1 @ (yb + C * yd1) + C1 @ (ycross + C * ydd1)
        hess = np.array([[hpp, hpm], [hpm, hmm]]) - np.outer(g, g)
        # de/dx = (Ap + Cp D0, Am + C0 Dm, Bp, Bm, Cp Dm); a product of its own keeps the last bits of the one above
        yd0, ydm, yam, ybm = (p @ np.stack([ev.D0, ev.Dm, ev.Am, ev.Bm], axis=1)).T
        gx = np.array([ev.Ap @ y1 + ev.Cp @ yd0, yam.sum() + ev.C0 @ ydm, ev.Bp @ y1, ybm.sum(), ev.Cp @ ydm])
        if not all(np.all(np.isfinite(v)) for v in (g, hess, gx)):
            raise ValueError("integrand overflow")
    return float(lz), g, hess, gx


def _linear_min(g: np.ndarray, summaries: tuple[EmpiricalSummary, EmpiricalSummary], delta: float,
                t: np.ndarray) -> tuple[float, np.ndarray]:
    """Frank-Wolfe gap g.(x(t) - x') and the t of x', a minimizer of g.x over the moment set. With
    a = alpha_n + r sin t, b = (sd_n + r cos t)^2 + a^2, c = a+ a-, g.x = (p0 + p1 s-) s+ + q+ cos t+
    + R s- + q- cos t- + const in s = sin t, q = 2 r sd_n g_b <= 0. The least over t+ is -W, W^2 =
    (p0 + p1 s-)^2 + q+^2; phi(s) = R s + q- w - W, w^2 = 1 - s^2, is least at +-1, at t's own s-,
    or where (R^2 w^2 + q-^2 s^2) W^2 - p1^2 (p0 + p1 s)^2 w^2 = 2 R q- s w W^2: squared, degree 8."""
    r, (sp, sm), norm = math.sqrt(delta), summaries, max(float(np.max(np.abs(g))), np.finfo(float).tiny)
    ap, am, bp, bm, c = g / norm
    coef = r * np.array([ap + 2.0 * sp.alpha_n * bp + c * sm.alpha_n, r * c, 2.0 * math.sqrt(sp.variance) * bp,
                         am + 2.0 * sm.alpha_n * bm + c * sp.alpha_n, 2.0 * math.sqrt(sm.variance) * bm])
    scale = max(float(np.max(np.abs(coef))), np.finfo(float).tiny)
    p0, p1, qp, R, qm = coef / scale
    w2, L2 = np.array([-1.0, 0.0, 1.0]), np.array([p1 * p1, 2.0 * p0 * p1, p0 * p0])
    W2 = L2 + [0.0, 0.0, qp * qp]
    lhs = np.convolve(R * R * w2 + [qm * qm, 0.0, 0.0], W2) - p1 * p1 * np.convolve(L2, w2)
    poly = np.convolve(lhs, lhs) - 4.0 * (R * qm) ** 2 * np.convolve([1.0, 0, 0], np.convolve(w2, np.convolve(W2, W2)))
    # leading terms within the others' rounding move no root of [-1, 1]; dropped, they cannot overflow np.roots
    poly = poly[np.argmax(np.abs(poly) > 1e-14 * np.max(np.abs(poly))):]
    s = np.clip(np.concatenate(([-1.0, 1.0, math.sin(t[1])], np.roots(poly).real)), -1.0, 1.0)
    phi = R * s + qm * np.sqrt(1.0 - s * s) - np.hypot(p0 + p1 * s, qp)
    k, (sin_p, sin_m) = int(np.argmin(phi)), np.sin(t)
    here = (p0 + p1 * sin_m) * sin_p + qp * math.cos(t[0]) + R * sin_m + qm * math.cos(t[1])
    return max(float(here - phi[k]), 0.0) * scale * norm, np.array([math.atan2(-(p0 + p1 * s[k]), abs(qp)),
                                                                   math.asin(s[k])])


def solve_inner(
    model: SpreadModel, domain: SpreadDomain, summaries: tuple[EmpiricalSummary, EmpiricalSummary], delta: float
) -> RobustSolution:
    """Maximize the worst-case objective over the box of feasible means.

    Maximizing -gamma * Z is minimizing log Z. In the coordinates
    alpha = alpha_n + sqrt(delta) sin t, t in [-pi/2, pi/2]^2, the pinned
    envelope beta = (sd + sqrt(delta) cos t)^2 + alpha^2 is smooth up to
    the faces of the mean box, and one grid pass gives log Z with its
    exact gradient and Hessian in t. Projected Newton (Bertsekas 1982)
    with Armijo backtracking runs from the box center. log Z is convex in the
    moments x, so the Frank-Wolfe gap (Jaggi 2013) bounds its excess over the
    least; while the gap exceeds tol, Newton reruns from the gap's vertex, kept
    if it lowers log Z by more than tol. All runs share one iteration budget.
    """
    check_radius(delta)
    validate_model_on_domain(model, domain)
    ev = _GridEvaluator(model, domain)
    half = math.pi / 2.0

    def descend(t: np.ndarray, budget: int) -> tuple[np.ndarray, float, np.ndarray, int, bool]:
        lz, g, hess, gx = _log_mass_in_t(ev, summaries, delta, t)
        for it in range(1, budget + 1):
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
                return t, lz, gx, it, True
            step = 1.0
            for _ in range(60):
                trial = np.clip(t + step * d, -half, half)
                lz_new, g_new, hess_new, gx_new = _log_mass_in_t(ev, summaries, delta, trial)
                if lz_new < lz + 1e-4 * float(g @ (trial - t)):
                    break
                step *= 0.5
            else:
                return t, lz, gx, it, False
            t, lz, g, hess, gx = trial, lz_new, g_new, hess_new, gx_new
        return t, lz, gx, budget, False

    t, lz, gx, iterations, converged = descend(np.zeros(2), _NEWTON_MAX_ITER)
    while True:
        tol = 10.0 * _NEWTON_TOL * (1.0 + abs(lz))
        gap, vertex = _linear_min(gx, summaries, delta, t)
        if gap <= tol or iterations == _NEWTON_MAX_ITER:
            break
        t_run, lz_run, gx_run, its, run_converged = descend(vertex, _NEWTON_MAX_ITER - iterations)
        iterations, converged = iterations + its, converged or run_converged
        if not lz_run < lz - tol:
            break
        t, lz, gx = t_run, lz_run, gx_run

    # |sin| <= 1 and monotone rounding keep these means inside the box
    ap, am = (np.array([s.alpha_n for s in summaries]) + math.sqrt(delta) * np.sin(t)).tolist()
    bp, bm = (theorem_beta_envelope(s, delta, a) for s, a in zip(summaries, (ap, am)))
    solution = RobustSolution(ap, am, bp, bm, ev.objective(ap, am, bp, bm), concavity_check(summaries, delta),
                              iterations, gap)
    if not converged:
        raise SolverError(f"inner solver did not converge in {_NEWTON_MAX_ITER} iterations", best=solution)
    return solution


@dataclass(frozen=True)
class PolicyGrid:
    """Quoting density on the spread square, tabulated on the domain grid."""

    domain: SpreadDomain
    density: np.ndarray

    def __post_init__(self) -> None:
        d = np.asarray(self.density, dtype=float)
        n = self.domain.grid_n
        if d.shape != (n, n):
            raise ValueError(f"density must have shape ({n}, {n})")
        if np.any(d < 0) or not np.all(np.isfinite(d)):
            raise ValueError("density must be finite and nonnegative")
        d = d.copy()
        d.flags.writeable = False
        object.__setattr__(self, "density", d)
        if abs(float(np.sum(self.cell_masses())) - 1.0) > 1e-6:
            raise ValueError("density must integrate to one")

    @cached_property
    def _cell_cdf(self) -> np.ndarray:
        cdf = np.cumsum(self.cell_masses().ravel())
        return cdf / cdf[-1]

    @cached_property
    def _cell_guide(self) -> np.ndarray:
        """Per bucket [k/m, (k+1)/m): the first cell whose CDF reaches k/m,
        or -1 where the bucket holds two or more CDF steps."""
        g = np.searchsorted(self._cell_cdf, np.arange(_GUIDE_SIZE + 1) / _GUIDE_SIZE, side="left")
        return np.where(np.diff(g) > 1, -1, g[:-1])

    def cell_masses(self) -> np.ndarray:
        return self.domain.weights * self.density


def build_policy(model: SpreadModel, domain: SpreadDomain, solution: RobustSolution) -> PolicyGrid:
    """Gibbs density M / integral(M) at the adversarial moments."""
    ev = _GridEvaluator(model, domain)
    try:
        log_z, p = ev.gibbs(*ev.tables(solution.alpha_star_plus, solution.alpha_star_minus,
                                       solution.beta_star_plus, solution.beta_star_minus))
    except ValueError as exc:
        raise DegeneratePolicyError("non-finite Gibbs exponent (nan or +inf)") from exc
    if log_z == -math.inf:
        raise DegeneratePolicyError("zero mass: the Gibbs exponent is -inf at every node")
    if log_z > _LOG_MAX_FLOAT:
        raise DegeneratePolicyError(f"normalizer overflow: log Z = {log_z:.6g}")
    if math.exp(log_z) == 0.0:
        raise DegeneratePolicyError(f"normalizer underflow: log Z = {log_z:.6g}")
    return PolicyGrid(domain=domain, density=np.divide(p, domain.weights, out=p))


def sample_policy(grid: PolicyGrid, rng: np.random.Generator, size: int):
    """Draw size spread pairs: inverse-CDF over cell masses, then uniform
    placement within the chosen cell. The cell search is indexed (Chen & Asau
    1974) and its cells are bit-identical to a binary search of the cell CDF."""
    cdf, guide, n = grid._cell_cdf, grid._cell_guide, grid.domain.grid_n
    lo, hi = grid.domain.cell_edges
    width = hi - lo
    # the placement uniforms become the spreads in place
    u, eps_plus, eps_minus = rng.random(size), rng.random(size), rng.random(size)
    # cdf ends at exactly 1.0 and u < 1, so every search lands on a cell
    idx = guide[(u * _GUIDE_SIZE).astype(np.intp)]
    # a narrow bucket's cell is g or g + 1; a wide one takes the binary search
    wide = np.flatnonzero(idx < 0)
    idx += cdf[idx] < u
    idx[wide] = np.searchsorted(cdf, u[wide], side="left")
    i = idx // n
    j = idx - i * n
    for x, k in ((eps_plus, i), (eps_minus, j)):
        x *= width[k]
        x += lo[k]
    return eps_plus, eps_minus


def expected_reward(
    model: SpreadModel, grid: PolicyGrid, alpha_plus: float, alpha_minus: float, beta_plus: float, beta_minus: float
) -> float:
    """Quadrature of the per-spread expected reward against the policy.

    The reward at a spread pair equals gamma times the Gibbs exponent, so
    this is the benchmark the episode simulator must reproduce. Each of
    gamma (A + B + C D) is contracted with the cell masses one axis at a time.
    """
    A, B, C, D = _GridEvaluator(model, grid.domain).tables(alpha_plus, alpha_minus, beta_plus, beta_minus)
    mass = grid.cell_masses()
    return float(model.gamma * (A @ mass.sum(axis=1) + B @ mass.sum(axis=0) + C @ (mass @ D)))
