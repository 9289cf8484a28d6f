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
from .moments import EmpiricalSummary, check_radius, theorem_beta_envelope

_GRID_N_MAX = 2049
_LOG_MAX_FLOAT = math.log(np.finfo(float).max)
# a Newton start stops once the first-order decrease along its step is
# below _NEWTON_TOL * (1 + |log Z|), and fails after _NEWTON_MAX_ITER steps
_NEWTON_TOL = 1e-9
_NEWTON_MAX_ITER = 500
# buckets of the sampler's guide table; a power of two keeps u * m and k / m exact
_GUIDE_SIZE = 1 << 16


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
            # the grid evaluator holds about eight grid_n^2 float arrays,
            # about 270 MB at the cap
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
    """Precomputed per-node constants for the Gibbs exponent on a domain.

    The exponent is affine in the five moment terms x = (a+, a-, b+, b-,
    a+ a-): exponent = x K + base with K a 5 x N coefficient matrix. So
    the gradient and Hessian of log Z in x are the Gibbs-weighted mean and
    covariance of the rows of K, and one grid pass yields all three.
    """

    def __init__(self, model: SpreadModel, domain: SpreadDomain):
        self.model = model
        x = domain.axis_nodes
        eta = model.eta
        # extreme inputs can overflow to inf here; gibbs checks the exponent
        with np.errstate(over="ignore", invalid="ignore"):
            fp = np.asarray(model.f_plus(x), dtype=float)
            fm = np.asarray(model.f_minus(x), dtype=float)
            hp = np.asarray(model.h_plus(x), dtype=float)
            hm = np.asarray(model.h_minus(x), dtype=float)
            a = (model.S + x) * hp
            b = (model.S - x) * hm
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
        self.logw = np.log(domain.weights).ravel()

    def _affine(self, x: np.ndarray) -> np.ndarray:
        """x K + base per row of x; callers check for the inf or nan of overflow."""
        with np.errstate(over="ignore", invalid="ignore"):
            e = x @ self.K
            e += self.base
        return e

    def exponent(self, ap: float, am: float, bp: float, bm: float) -> np.ndarray:
        return self._affine(np.array([ap, am, bp, bm, ap * am]))

    def gibbs(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """log Z and the normalized Gibbs weights exp(exponent) * w / Z per
        row of moment terms x (one row of five, or k x 5). A row that is
        -inf at every node has log Z = -inf and zero weights."""
        e = self._affine(x)
        with np.errstate(over="ignore"):
            e += self.logw
        m = np.max(e, axis=-1, keepdims=True)
        # a nan or +inf term, of the exponent or after its log weight, is its row's max
        if not np.all(m < math.inf):
            raise ValueError("integrand overflow")
        e -= np.where(m == -math.inf, 0.0, m)
        p = np.exp(e, out=e)
        # the largest shifted term is exp(0) = 1, so only a row that is -inf
        # everywhere sums to 0; dividing it by 1 keeps its weights and log Z
        total = np.sum(p, axis=-1, keepdims=True)
        total[total == 0.0] = 1.0
        p /= total
        return (m + np.log(total))[..., 0], p

    def objective(self, ap, am, bp, bm):
        """-gamma * integral of M over the spread square at paired moments:
        a float for scalar moments, else an array of their broadcast shape.

        +inf or nan exponents mean the integrand itself overflowed; -inf
        is a vanishing integrand and gives -0.0.
        """
        ap, am, bp, bm = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (ap, am, bp, bm)))
        rows = np.stack([ap, am, bp, bm, ap * am], axis=-1).reshape(-1, 5)
        chunk = max(1, 8_000_000 // len(self.base))
        lz = np.concatenate([np.empty(0)] + [self.gibbs(rows[s : s + chunk])[0]
                                             for s in range(0, len(rows), chunk)])
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


def _envelope_map(summaries: tuple[EmpiricalSummary, EmpiricalSummary],
                  delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The pinned envelope in solve_inner's coordinates t as an affine map x(t) = c + L phi(t)
    of phi = (sin t+, cos t+, sin t-, cos t-, sin t+ sin t-): with r = sqrt(delta),
    a = alpha_n + r sin t and b = (sd + r cos t)^2 + a^2 = beta_n + delta + 2 r (sd cos t + alpha_n sin t)."""
    sp, sm = summaries
    r = math.sqrt(delta)
    c = np.array([sp.alpha_n, sm.alpha_n, sp.beta_n + delta, sm.beta_n + delta, sp.alpha_n * sm.alpha_n])
    L = np.zeros((5, 5))
    L[0, 0] = L[1, 2] = r
    L[2, :2] = 2.0 * r * sp.alpha_n, 2.0 * r * math.sqrt(sp.variance)
    L[3, 2:4] = 2.0 * r * sm.alpha_n, 2.0 * r * math.sqrt(sm.variance)
    L[4] = r * sm.alpha_n, 0.0, r * sp.alpha_n, 0.0, delta
    return c, L


def _log_mass_in_t(ev: _GridEvaluator, c: np.ndarray, L: np.ndarray,
                   t: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """log Z on the pinned envelope x(t) = c + L phi(t), with its exact
    gradient and Hessian in t: one grid pass, the Gibbs mean and covariance
    of K's rows (the moment derivatives) mapped into phi by L, then phi's own
    trig derivatives. Extreme radii overflow the map; the descent takes its inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        sin, cos = np.sin(t), np.cos(t)
        phi = np.array([sin[0], cos[0], sin[1], cos[1], sin[0] * sin[1]])
        lz, p = ev.gibbs(c + L @ phi)
        mean = ev.K @ p
        cov = (ev.K * p) @ ev.K.T - np.outer(mean, mean)
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("integrand overflow")
        g = L.T @ mean
        jac = np.array([[cos[0], 0.0], [-sin[0], 0.0], [0.0, cos[1]], [0.0, -sin[1]],
                        [cos[0] * sin[1], sin[0] * cos[1]]])
        hess = jac.T @ (L.T @ cov @ L) @ jac
        # phi's second derivatives: -phi_k along its own angles, plus cos t+ cos t- across them for phi_4
        hess[0, 0] -= g[0] * phi[0] + g[1] * phi[1] + g[4] * phi[4]
        hess[1, 1] -= g[2] * phi[2] + g[3] * phi[3] + g[4] * phi[4]
        hess[0, 1] = hess[1, 0] = hess[0, 1] + g[4] * cos[0] * cos[1]
        return float(lz), jac.T @ g, hess


def solve_inner(
    model: SpreadModel, domain: SpreadDomain, summaries: tuple[EmpiricalSummary, EmpiricalSummary], delta: float
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
    answer is the empirical means.
    """
    check_radius(delta)
    validate_model_on_domain(model, domain)
    ev = _GridEvaluator(model, domain)
    cert = concavity_check(summaries, delta)
    c, L = _envelope_map(summaries, delta)
    half = math.pi / 2.0

    def descend(t: np.ndarray) -> tuple[np.ndarray, float, int, bool]:
        lz, g, hess = _log_mass_in_t(ev, c, L, t)
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
                lz_new, g_new, hess_new = _log_mass_in_t(ev, c, L, trial)
                if lz_new < lz + 1e-4 * float(g @ (trial - t)):
                    break
                step *= 0.5
            else:
                return t, lz, it, False
            t, lz, g, hess = trial, lz_new, g_new, hess_new
        return t, lz, _NEWTON_MAX_ITER, False

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
    ap, am = (c[:2] + math.sqrt(delta) * np.sin(best_t)).tolist()
    bp, bm = (theorem_beta_envelope(s, delta, a) for s, a in zip(summaries, (ap, am)))
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
    ap, am = solution.alpha_star_plus, solution.alpha_star_minus
    try:
        log_z, p = ev.gibbs(np.array([ap, am, solution.beta_star_plus, solution.beta_star_minus, ap * am]))
    except ValueError as exc:
        raise DegeneratePolicyError("non-finite Gibbs exponent (nan or +inf)") from exc
    if log_z == -math.inf:
        raise DegeneratePolicyError("zero mass: the Gibbs exponent is -inf at every node")
    if log_z > _LOG_MAX_FLOAT:
        raise DegeneratePolicyError(f"normalizer overflow: log Z = {log_z:.6g}")
    if math.exp(log_z) == 0.0:
        raise DegeneratePolicyError(f"normalizer underflow: log Z = {log_z:.6g}")
    return PolicyGrid(domain=domain, density=p.reshape(domain.grid_n, domain.grid_n) / domain.weights)


def sample_policy(grid: PolicyGrid, rng: np.random.Generator, size: int):
    """Draw size spread pairs: inverse-CDF over cell masses, then uniform
    placement within the chosen cell. The cell search is indexed (Chen & Asau
    1974) and its cells are bit-identical to a binary search of the cell CDF."""
    cdf = grid._cell_cdf
    u = rng.random(size)
    ux = rng.random(size)
    uy = rng.random(size)
    # cdf ends at exactly 1.0 and u < 1, so every search lands on a cell
    idx = grid._cell_guide[(u * _GUIDE_SIZE).astype(np.intp)]
    # a narrow bucket's cell is g or g + 1; a wide one takes the binary search
    wide = np.flatnonzero(idx < 0)
    idx += cdf[idx] < u
    idx[wide] = np.searchsorted(cdf, u[wide], side="left")
    i, j = np.divmod(idx, grid.domain.grid_n)
    lo, hi = grid.domain.cell_edges
    eps_plus = lo[i] + ux * (hi[i] - lo[i])
    eps_minus = lo[j] + uy * (hi[j] - lo[j])
    return eps_plus, eps_minus


def expected_reward(
    model: SpreadModel, grid: PolicyGrid, alpha_plus: float, alpha_minus: float, beta_plus: float, beta_minus: float
) -> float:
    """Quadrature of the per-spread expected reward against the policy.

    The reward at a spread pair equals gamma times the Gibbs exponent, so
    this is the benchmark the episode simulator must reproduce.
    """
    ev = _GridEvaluator(model, grid.domain)
    expo = ev.exponent(alpha_plus, alpha_minus, beta_plus, beta_minus)
    reward = model.gamma * expo
    return float(np.sum(grid.cell_masses().ravel() * reward))
