"""Robust inner problem and the entropy-regularized quoting policy.

The market maker posts half-spreads (eps_plus, eps_minus) drawn from a
density pi on [0, eps_max]^2. With fill sensitivities h and baseline
flows f, cash and inventory bookkeeping give the expected reward at a
spread pair; entropy regularization at temperature gamma makes the
optimal policy a Gibbs density proportional to

    M(eps) = exp{ [ (A - 2 eta C h+) a+ - (B - 2 eta C h-) a-
                    - eta (h+^2 b+ - 2 h+ h- a+ a- + h-^2 b-)
                    + (S + eps+) f+ - (S - eps-) f- - eta C^2 ] / gamma }

where A = (S + eps+) h+, B = (S - eps-) h-, C = Q + f+ - f-, (a, b) are
the first and second moments of the innovations, and the cross term uses
independence of the two sides. The adversary picks the moments inside
per-side transport balls; the worst case pins each second moment at its
envelope and leaves a two-dimensional concave (under a certificate)
maximization of -gamma * integral(M) over a box of means.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .functions import FunctionSpec
from .moments import EmpiricalSummary, theorem_beta_envelope

_QUADRATURES = ("trapezoid", "midpoint")
_GRID_N_MAX = 2049
_LOG_MAX_FLOAT = math.log(np.finfo(float).max)


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
        if self.gamma <= 0:
            raise ValueError("entropy temperature gamma must be positive")
        if self.eta < 0:
            raise ValueError("inventory penalty eta must be nonnegative")


@dataclass(frozen=True)
class SpreadDomain:
    """Tensor-product quadrature over the spread square [0, eps_max]^2."""

    eps_max: float
    grid_n: int = 257
    quadrature: str = "trapezoid"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.eps_max) and self.eps_max > 0):
            raise ValueError("eps_max must be positive")
        if not 16 <= self.grid_n <= _GRID_N_MAX:
            # the grid evaluator holds about eight grid_n^2 float arrays,
            # about 270 MB at the cap
            raise ValueError(f"grid_n must be between 16 and {_GRID_N_MAX}, got {self.grid_n}")
        if self.quadrature not in _QUADRATURES:
            raise ValueError(f"quadrature must be one of {_QUADRATURES}")

    @cached_property
    def axis_nodes(self) -> np.ndarray:
        if self.quadrature == "trapezoid":
            return np.linspace(0.0, self.eps_max, self.grid_n)
        step = self.eps_max / self.grid_n
        return (np.arange(self.grid_n) + 0.5) * step

    @cached_property
    def axis_weights(self) -> np.ndarray:
        if self.quadrature == "trapezoid":
            step = self.eps_max / (self.grid_n - 1)
            w = np.full(self.grid_n, step)
            w[0] = w[-1] = step / 2.0
            return w
        return np.full(self.grid_n, self.eps_max / self.grid_n)

    @cached_property
    def cell_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node cells tiling [0, eps_max], split at the midpoints between
        nodes; for both rules the cell lengths equal the weights."""
        x = self.axis_nodes
        seams = (x[:-1] + x[1:]) / 2.0
        return np.concatenate(([0.0], seams)), np.concatenate((seams, [self.eps_max]))


def validate_model_on_domain(model: SpreadModel, domain: SpreadDomain) -> None:
    """f and h must be finite on the spread interval and h nonnegative."""
    eps = np.linspace(0.0, domain.eps_max, max(1025, 2 * domain.grid_n))
    for name in ("f_plus", "f_minus", "h_plus", "h_minus"):
        vals = np.asarray(getattr(model, name)(eps), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"{name} is not finite on [0, eps_max]")
        if name.startswith("h") and np.any(vals < 0):
            raise ValueError(f"{name} must be nonnegative on [0, eps_max]")


class _GridEvaluator:
    """Precomputed per-node constants for the Gibbs exponent on a domain.

    The exponent is affine in the five moment terms x = (a+, a-, b+, b-,
    a+ a-): exponent = x K + base with K a 5 x N coefficient matrix. So
    the gradient and Hessian of log Z in x are the Gibbs-weighted mean and
    covariance of the rows of K, and one grid pass yields all three.
    """

    def __init__(self, model: SpreadModel, domain: SpreadDomain):
        self.model = model
        self.domain = domain
        x = domain.axis_nodes
        fp = np.asarray(model.f_plus(x), dtype=float)
        fm = np.asarray(model.f_minus(x), dtype=float)
        hp = np.asarray(model.h_plus(x), dtype=float)
        hm = np.asarray(model.h_minus(x), dtype=float)
        a = (model.S + x) * hp
        b = (model.S - x) * hm
        eta = model.eta
        # extreme inputs can overflow to inf here; the checks on the
        # exponent in log_mass_moments, objective and build_policy handle that
        with np.errstate(over="ignore", invalid="ignore"):
            c = model.Q + fp[:, None] - fm[None, :]
            K = np.empty((5,) + c.shape)
            K[0] = a[:, None] - 2.0 * eta * c * hp[:, None]
            K[1] = 2.0 * eta * c * hm[None, :] - b[None, :]
            K[2] = -(eta * hp * hp)[:, None]
            K[3] = -(eta * hm * hm)[None, :]
            K[4] = 2.0 * eta * hp[:, None] * hm[None, :]
            K /= model.gamma
            self.K = K.reshape(5, -1)
            base = (
                ((model.S + x) * fp)[:, None]
                - ((model.S - x) * fm)[None, :]
                - eta * c * c
            )
            self.base = base.ravel() / model.gamma
        w = domain.axis_weights
        self.wprod = (w[:, None] * w[None, :]).ravel()
        self.logw = np.log(self.wprod)

    def exponent(self, ap: float, am: float, bp: float, bm: float) -> np.ndarray:
        e = np.array([ap, am, bp, bm, ap * am]) @ self.K
        e += self.base
        return e

    def log_mass_moments(self, x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """log Z at the moment terms x with its gradient and Hessian in x:
        the Gibbs-weighted mean and covariance of the rows of K."""
        e = x @ self.K
        e += self.base
        if np.any(np.isnan(e)) or np.any(np.isposinf(e)):
            raise ValueError("integrand overflow")
        e += self.logw
        m = float(np.max(e))
        if m == -math.inf:
            return -math.inf, np.zeros(5), np.zeros((5, 5))
        e -= m
        p = np.exp(e, out=e)
        total = float(np.sum(p))
        p /= total
        mean = self.K @ p
        second = (self.K * p) @ self.K.T
        return m + math.log(total), mean, second - np.outer(mean, mean)

    def objective(self, ap, am, bp, bm):
        """-gamma * integral of M over the spread square at paired moments:
        a float for scalar moments, else an array of their broadcast shape.

        +inf or nan exponents mean the integrand itself overflowed; -inf
        is a vanishing integrand and gives -0.0. The last log and exp run
        per row through math, so every row rounds like a scalar call.
        """
        ap, am, bp, bm = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (ap, am, bp, bm)))
        rows = np.stack([ap, am, bp, bm, ap * am], axis=-1).reshape(-1, 5)
        lz = []
        chunk = max(1, 8_000_000 // len(self.base))
        for s in range(0, len(rows), chunk):
            e = rows[s : s + chunk] @ self.K
            e += self.base
            if np.any(np.isnan(e)) or np.any(np.isposinf(e)):
                raise ValueError("integrand overflow")
            e += self.logw
            m = np.max(e, axis=1)
            e -= np.where(np.isneginf(m), 0.0, m)[:, None]
            total = np.sum(np.exp(e, out=e), axis=1)
            lz += [mk + math.log(tk) if mk > -math.inf else -math.inf
                   for mk, tk in zip(m.tolist(), total.tolist())]
        if max(lz, default=-math.inf) > 700.0:
            # finite exponent, unrepresentable mass
            raise ValueError("integrand overflow")
        out = np.array([-self.model.gamma * math.exp(v) for v in lz]).reshape(ap.shape)
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

    def __post_init__(self) -> None:
        if not math.isfinite(self.objective):
            raise ValueError("objective must be finite")


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-9
    max_iter: int = 500


def concavity_check(summaries: tuple[EmpiricalSummary, EmpiricalSummary], delta: float) -> bool:
    """Certificate var+ * var- >= delta^2 under which the inner problem
    (moments eliminated via the envelopes) is concave over the mean box."""
    sp, sm = summaries
    return sp.variance * sm.variance >= delta * delta


def worst_case_objective(
    model: SpreadModel,
    domain: SpreadDomain,
    summaries: tuple[EmpiricalSummary, EmpiricalSummary],
    delta: float,
    alpha_plus,
    alpha_minus,
):
    """Objective -gamma * integral(M) with second moments pinned at their
    adversarial envelopes for the given means: scalar means give a float,
    arrays of paired means an array."""
    sp, sm = summaries
    bp = theorem_beta_envelope(sp, delta, alpha_plus)
    bm = theorem_beta_envelope(sm, delta, alpha_minus)
    return _GridEvaluator(model, domain).objective(alpha_plus, alpha_minus, bp, bm)


def _log_mass_in_t(
    ev: _GridEvaluator,
    summaries: tuple[EmpiricalSummary, EmpiricalSummary],
    delta: float,
    t: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray]:
    """log Z on the pinned envelope at alpha = alpha_n + sqrt(delta) sin t,
    with its exact gradient and Hessian in t: one grid pass, then the
    chain rule through x(t) = (a+, a-, b+, b-, a+ a-)."""
    sp, sm = summaries
    root = math.sqrt(delta)
    sd = np.sqrt([sp.variance, sm.variance])
    sin, cos = np.sin(t), np.cos(t)
    a = np.array([sp.alpha_n, sm.alpha_n]) + root * sin
    spread = sd + root * cos
    b = spread * spread + a * a
    lz, g, h = ev.log_mass_moments(np.array([a[0], a[1], b[0], b[1], a[0] * a[1]]))
    da = root * cos
    db = 2.0 * root * (a * cos - spread * sin)
    d2a = -root * sin
    d2b = 2.0 * root * (root * sin * sin - sd * cos - a * sin)
    jac = np.array([[da[0], 0.0], [0.0, da[1]], [db[0], 0.0], [0.0, db[1]],
                    [a[1] * da[0], a[0] * da[1]]])
    hess = jac.T @ h @ jac
    hess += np.diag(g[:2] * d2a + g[2:4] * d2b + g[4] * a[::-1] * d2a)
    hess[0, 1] += g[4] * da[0] * da[1]
    hess[1, 0] = hess[0, 1]
    return lz, jac.T @ g, hess


def solve_inner(
    model: SpreadModel,
    domain: SpreadDomain,
    summaries: tuple[EmpiricalSummary, EmpiricalSummary],
    delta: float,
    options: SolverOptions | None = None,
) -> RobustSolution:
    """Maximize the worst-case objective over the box of feasible means.

    Maximizing -gamma * Z is minimizing log Z. In the coordinates
    alpha = alpha_n + sqrt(delta) sin t, t in [-pi/2, pi/2]^2, the pinned
    envelope beta = (sd + sqrt(delta) cos t)^2 + alpha^2 is smooth up to
    the faces of the mean box, and one grid pass gives log Z with its
    exact gradient and Hessian in t. Projected Newton (Bertsekas 1982)
    with Armijo backtracking runs from the box center when the concavity
    certificate holds, else from the nine points of {-pi/2, 0, pi/2}^2,
    the center first. Ties keep the earlier start, so when h = 0 (the
    moments never enter the integrand, and every start stops at once) the
    answer is the empirical means. delta = 0 short-circuits to the
    empirical moments.
    """
    if delta < 0:
        raise ValueError("negative radius")
    opts = options or SolverOptions()
    validate_model_on_domain(model, domain)
    ev = _GridEvaluator(model, domain)
    sp, sm = summaries
    cert = concavity_check(summaries, delta)

    if delta == 0.0:
        obj = ev.objective(sp.alpha_n, sm.alpha_n, sp.beta_n, sm.beta_n)
        return RobustSolution(
            alpha_star_plus=sp.alpha_n,
            alpha_star_minus=sm.alpha_n,
            beta_star_plus=sp.beta_n,
            beta_star_minus=sm.beta_n,
            objective=obj,
            concave_certificate=cert,
            iterations=0,
        )

    half = math.pi / 2.0

    def descend(t: np.ndarray) -> tuple[np.ndarray, float, int, bool]:
        lz, g, hess = _log_mass_in_t(ev, summaries, delta, t)
        for it in range(1, opts.max_iter + 1):
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
            if -float(g @ d) <= opts.tol * (1.0 + abs(lz)):
                return t, lz, it, True
            step = 1.0
            for _ in range(60):
                trial = np.clip(t + step * d, -half, half)
                lz_new, g_new, hess_new = _log_mass_in_t(ev, summaries, delta, trial)
                if lz_new < lz + 1e-4 * float(g @ (trial - t)):
                    break
                step *= 0.5
            else:
                return t, lz, it, False
            t, lz, g, hess = trial, lz_new, g_new, hess_new
        return t, lz, opts.max_iter, False

    starts = [np.zeros(2)]
    if not cert:
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

    # |sin| <= 1 and monotone rounding keep these means inside the box
    root = math.sqrt(delta)
    ap, am = (np.array([sp.alpha_n, sm.alpha_n]) + root * np.sin(best_t)).tolist()
    bp = theorem_beta_envelope(sp, delta, ap)
    bm = theorem_beta_envelope(sm, delta, am)
    solution = RobustSolution(
        alpha_star_plus=ap,
        alpha_star_minus=am,
        beta_star_plus=bp,
        beta_star_minus=bm,
        objective=ev.objective(ap, am, bp, bm),
        concave_certificate=cert,
        iterations=total_iter,
    )
    if not any_converged:
        raise SolverError(f"inner solver did not converge in {opts.max_iter} iterations", best=solution)
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
        w = self.domain.axis_weights
        total = float(np.sum((w[:, None] * w[None, :]) * d))
        if abs(total - 1.0) > 1e-6:
            raise ValueError("density must integrate to one")

    @cached_property
    def _cell_cdf(self) -> np.ndarray:
        w = self.domain.axis_weights
        masses = ((w[:, None] * w[None, :]) * self.density).ravel()
        cdf = np.cumsum(masses)
        return cdf / cdf[-1]

    def cell_masses(self) -> np.ndarray:
        w = self.domain.axis_weights
        return (w[:, None] * w[None, :]) * self.density


def build_policy(model: SpreadModel, domain: SpreadDomain, solution: RobustSolution) -> PolicyGrid:
    """Gibbs density M / integral(M) at the adversarial moments."""
    ev = _GridEvaluator(model, domain)
    expo = ev.exponent(
        solution.alpha_star_plus,
        solution.alpha_star_minus,
        solution.beta_star_plus,
        solution.beta_star_minus,
    )
    if np.any(np.isnan(expo)) or np.any(np.isposinf(expo)):
        raise DegeneratePolicyError("non-finite Gibbs exponent (nan or +inf)")
    m = float(np.max(expo))
    if not math.isfinite(m):
        raise DegeneratePolicyError("zero mass: the Gibbs exponent is -inf at every node")
    t = np.exp(expo - m)
    mass_shifted = float(np.sum(t * ev.wprod))
    if mass_shifted <= 0 or not math.isfinite(mass_shifted):
        raise DegeneratePolicyError(f"zero or non-finite Gibbs mass ({mass_shifted!r} after shift)")
    log_z = m + math.log(mass_shifted)
    if log_z > _LOG_MAX_FLOAT:
        raise DegeneratePolicyError(f"normalizer overflow: log Z = {log_z:.6g}")
    if math.exp(log_z) == 0.0:
        raise DegeneratePolicyError(f"normalizer underflow: log Z = {log_z:.6g}")
    density = (t / mass_shifted).reshape(domain.grid_n, domain.grid_n)
    return PolicyGrid(domain=domain, density=density)


def sample_policy(grid: PolicyGrid, rng, size: int | None = None):
    """Draw spread pairs: inverse-CDF over cell masses, then uniform
    placement within the chosen cell. rng is a seed or a Generator."""
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    n = 1 if size is None else int(size)
    if n < 1:
        raise ValueError("size must be positive")
    cdf = grid._cell_cdf
    u = gen.random(n)
    ux = gen.random(n)
    uy = gen.random(n)
    idx = np.searchsorted(cdf, u, side="left")
    idx = np.minimum(idx, len(cdf) - 1)
    i, j = np.divmod(idx, grid.domain.grid_n)
    lo, hi = grid.domain.cell_edges
    eps_plus = lo[i] + ux * (hi[i] - lo[i])
    eps_minus = lo[j] + uy * (hi[j] - lo[j])
    if size is None:
        return float(eps_plus[0]), float(eps_minus[0])
    return eps_plus, eps_minus


def expected_reward(
    model: SpreadModel,
    grid: PolicyGrid,
    alpha_plus: float,
    alpha_minus: float,
    beta_plus: float,
    beta_minus: float,
) -> float:
    """Quadrature of the per-spread expected reward against the policy.

    The reward at a spread pair equals gamma times the Gibbs exponent, so
    this is the benchmark the episode simulator must reproduce.
    """
    ev = _GridEvaluator(model, grid.domain)
    expo = ev.exponent(alpha_plus, alpha_minus, beta_plus, beta_minus)
    reward = model.gamma * expo
    return float(np.sum(grid.density.ravel() * ev.wprod * reward))
