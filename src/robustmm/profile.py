"""Closed-form robustness profile and data-driven radius selection.

For a candidate moment pair (alpha*, Sigma*) against empirical moments
(alpha_n, Sigma_n) of n points per side, with P = Sigma_n^{-1} and
D = Sigma_n - Sigma*, the profile value is

    R(alpha*, Sigma*) =
        (alpha* - alpha_n)' (alpha* - alpha_n) / (4 n (1 - g))
      + alpha_n' P D^2 P alpha_n / (4 n (1 - g))
      + alpha_n' P D (alpha* - alpha_n) / (2 n (1 - g))
      + tr(D P D) / (2 n)
      + E[u' P D^2 P u] / (4 n)

where g = alpha_n' P alpha_n < 1 and the expectation is over independent
pairs drawn from the empirical product measure, which reduces to
tr(P D^2 P Sigma_n) = tr(D^2 P). The radius rule inverts the confidence
condition R <= 2 delta^2 at a bootstrap quantile of the profile.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import EmpiricalSummary, SampleSet, empirical_moments

_DET_TOL = 1e-12
DEFAULT_RESAMPLES = 500
# each round holds about five n-long float arrays: 240 MB at the cap for n = 300
_RESAMPLES_MAX = 20_000


@dataclass(frozen=True)
class MomentTarget:
    """Candidate mean vector (buy, sell) and 2x2 second-moment matrix."""

    alpha: tuple[float, float]
    sigma: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self) -> None:
        alpha = tuple(float(a) for a in self.alpha)
        if len(alpha) != 2 or not all(math.isfinite(a) for a in alpha):
            raise ValueError("alpha must be two finite numbers")
        sig = np.asarray(self.sigma, dtype=float)
        if sig.shape != (2, 2) or not np.all(np.isfinite(sig)):
            raise ValueError("sigma must be a finite 2x2 matrix")
        scale = 1.0 + float(np.max(np.abs(sig)))
        if abs(sig[0, 1] - sig[1, 0]) > 1e-12 * scale:
            raise ValueError("sigma must be symmetric")
        for k in range(2):
            if sig[k, k] < alpha[k] * alpha[k] - 1e-12 * scale:
                raise ValueError("diagonal of sigma must dominate squared means")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "sigma", ((float(sig[0, 0]), float(sig[0, 1])),
                                           (float(sig[1, 0]), float(sig[1, 1]))))

    @classmethod
    def from_moments(cls, alpha_plus: float, alpha_minus: float,
                     beta_plus: float, beta_minus: float) -> "MomentTarget":
        """Product-measure structure: off-diagonal is the product of means."""
        cross = alpha_plus * alpha_minus
        return cls(alpha=(alpha_plus, alpha_minus),
                   sigma=((beta_plus, cross), (cross, beta_minus)))


def moment_matrices(summaries: tuple[EmpiricalSummary, EmpiricalSummary]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical (alpha_n, Sigma_n) with the product-measure off-diagonal."""
    sp, sm = summaries
    alpha = np.array([sp.alpha_n, sm.alpha_n])
    sigma = np.array([
        [sp.beta_n, sp.alpha_n * sm.alpha_n],
        [sp.alpha_n * sm.alpha_n, sm.beta_n],
    ])
    return alpha, sigma


def _sigma_inverse(sigma: np.ndarray) -> np.ndarray:
    det = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] * sigma[1, 0]
    scale = max(abs(sigma[0, 0]), abs(sigma[1, 1]), 1e-300)
    if abs(det) <= _DET_TOL * scale * scale:
        raise ValueError("degenerate empirical covariance")
    return np.array([[sigma[1, 1], -sigma[0, 1]], [-sigma[1, 0], sigma[0, 0]]]) / det


def gram_bound_check(summaries: tuple[EmpiricalSummary, EmpiricalSummary]) -> float:
    """g = alpha_n' Sigma_n^{-1} alpha_n; strictly below one whenever both
    sides carry positive variance."""
    alpha, sigma = moment_matrices(summaries)
    p = _sigma_inverse(sigma)
    return float(alpha @ p @ alpha)


def robust_profile(
    target: MomentTarget,
    summaries: tuple[EmpiricalSummary, EmpiricalSummary],
    n: int,
) -> float:
    """Profile value R(alpha*, Sigma*) against the empirical summaries."""
    if n < 1:
        raise ValueError("n must be at least one")
    alpha_n, sigma_n = moment_matrices(summaries)
    p = _sigma_inverse(sigma_n)
    g = float(alpha_n @ p @ alpha_n)
    if g >= 1.0:
        raise ValueError("gram bound violated: alpha_n' Sigma_n^{-1} alpha_n >= 1")
    d = sigma_n - np.asarray(target.sigma)
    da = np.asarray(target.alpha) - alpha_n
    pa = p @ alpha_n
    dpa = d @ pa
    denom4 = 4.0 * n * (1.0 - g)
    t1 = float(da @ da) / denom4
    t2 = float(dpa @ dpa) / denom4
    t3 = float(dpa @ da) / (2.0 * n * (1.0 - g))
    t4 = float(np.trace(d @ p @ d)) / (2.0 * n)
    t5 = float(np.trace(p @ d @ d @ p @ sigma_n)) / (4.0 * n)
    return t1 + t2 + t3 + t4 + t5


@dataclass(frozen=True)
class RadiusSelection:
    """Bootstrap quantile of the profile and the radius it certifies."""

    chi: float
    delta_hat: float
    resamples: int
    profile_quantile: float


def check_chi(chi: float) -> None:
    if not (0.0 < chi < 1.0):
        raise ValueError("chi must be in (0, 1)")


def check_resamples(resamples: int) -> None:
    if not 100 <= resamples <= _RESAMPLES_MAX:
        raise ValueError(f"resamples must be between 100 and {_RESAMPLES_MAX}, got {resamples}")


def check_radius_samples(
    samples_plus: SampleSet, samples_minus: SampleSet
) -> tuple[EmpiricalSummary, EmpiricalSummary]:
    """The radius rule needs equal sample sizes, at least two a side, and a
    nonsingular empirical second-moment matrix; returns the summaries."""
    if samples_plus.n != samples_minus.n:
        raise ValueError(f"sample sizes must match across sides, got {samples_plus.n} buy "
                         f"and {samples_minus.n} sell")
    if samples_plus.n < 2:
        raise ValueError("need at least two samples per side")
    summaries = (empirical_moments(samples_plus), empirical_moments(samples_minus))
    gram_bound_check(summaries)  # raises on a degenerate empirical covariance
    return summaries


def select_radius(
    samples_plus: SampleSet,
    samples_minus: SampleSet,
    chi: float,
    resamples: int = DEFAULT_RESAMPLES,
    rng_seed: int = 0,
) -> RadiusSelection:
    """Pick the smallest radius whose confidence condition R <= 2 delta^2
    holds at bootstrap level 1 - chi.

    Each round resamples n points per side with replacement, forms that
    round's moment target, and evaluates the profile against the original
    summaries; delta_hat inverts the (1 - chi) empirical quantile. The
    quantile uses the "higher" order statistic: deterministic and
    conservative for coverage.
    """
    check_chi(chi)
    check_resamples(resamples)
    summaries = check_radius_samples(samples_plus, samples_minus)
    n = samples_plus.n

    rng = np.random.default_rng(rng_seed)
    xp = samples_plus.as_array()
    xm = samples_minus.as_array()
    idx_p = rng.integers(0, n, size=(resamples, n))
    idx_m = rng.integers(0, n, size=(resamples, n))
    vp = xp[idx_p]
    vm = xm[idx_m]
    ap = vp.mean(axis=1)
    am = vm.mean(axis=1)
    bp = (vp * vp).mean(axis=1)
    bm = (vm * vm).mean(axis=1)

    values = np.empty(resamples)
    for r in range(resamples):
        target = MomentTarget.from_moments(ap[r], am[r], bp[r], bm[r])
        values[r] = robust_profile(target, summaries, n)
    q = float(np.quantile(values, 1.0 - chi, method="higher"))
    q = max(q, 0.0)
    return RadiusSelection(
        chi=chi,
        delta_hat=math.sqrt(q / 2.0),
        resamples=resamples,
        profile_quantile=q,
    )
