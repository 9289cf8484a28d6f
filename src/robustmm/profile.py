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
tr(P D^2 P Sigma_n) = tr(D^2 P). The five terms are two squares:

    R = (|v|^2 / (1 - g) + 3 tr(D^2 P)) / (4 n),  v = alpha* - alpha_n + D P alpha_n.

D and P are symmetric, so alpha_n' P D^2 P alpha_n = |D P alpha_n|^2 and the
first three terms expand |v|^2; tr(D P D) = tr(D^2 P) by the cyclic rule and
P Sigma_n = I, so the last two are 2 + 1 copies of tr(D^2 P) / (4 n).

The radius rule inverts the confidence condition R <= 2 delta^2 at a
bootstrap quantile of the profile.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import EmpiricalSummary, SampleSet, empirical_moments

_DET_TOL = 1e-12
DEFAULT_RESAMPLES = 500
_RESAMPLES_MAX = 20_000
# bootstrap values drawn per block: about 24 MB live, whatever the rounds or n
_CHUNK = 1 << 20


def _check_targets(alpha: np.ndarray, sigma: np.ndarray) -> None:
    """Rules for a stack of targets, means (k, 2) and second-moment matrices
    (k, 2, 2): finite, symmetric, each diagonal entry at least the squared
    mean, both up to 1e-12 times the row's scale 1 + max |sigma|."""
    if alpha.ndim != 2 or alpha.shape[1] != 2 or not np.all(np.isfinite(alpha)):
        raise ValueError("alpha must be two finite numbers")
    if sigma.shape != (len(alpha), 2, 2) or not np.all(np.isfinite(sigma)):
        raise ValueError("sigma must be a finite 2x2 matrix")
    slack = 1e-12 * (1.0 + np.max(np.abs(sigma), axis=(1, 2)))
    if np.any(np.abs(sigma[:, 0, 1] - sigma[:, 1, 0]) > slack):
        raise ValueError("sigma must be symmetric")
    if np.any(np.diagonal(sigma, axis1=1, axis2=2) < alpha * alpha - slack[:, None]):
        raise ValueError("diagonal of sigma must dominate squared means")


@dataclass(frozen=True)
class MomentTarget:
    """Candidate mean vector (buy, sell) and 2x2 second-moment matrix."""

    alpha: tuple[float, float]
    sigma: tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self) -> None:
        alpha = np.asarray(self.alpha, dtype=float)
        sig = np.asarray(self.sigma, dtype=float)
        _check_targets(alpha[None], sig[None])
        object.__setattr__(self, "alpha", tuple(alpha.tolist()))
        object.__setattr__(self, "sigma", tuple(map(tuple, sig.tolist())))

    @classmethod
    def from_moments(cls, alpha_plus: float, alpha_minus: float,
                     beta_plus: float, beta_minus: float) -> "MomentTarget":
        """Product-measure structure: off-diagonal is the product of means."""
        return cls(*product_moments(alpha_plus, alpha_minus, beta_plus, beta_minus))


def product_moments(alpha_plus, alpha_minus, beta_plus, beta_minus) -> tuple[np.ndarray, np.ndarray]:
    """Product-measure means (..., 2) and second moments (..., 2, 2), the off-diagonal the
    product of the means: scalar moments give one target, arrays of k a stack of k."""
    cross = np.multiply(alpha_plus, alpha_minus)
    sigma = np.stack([beta_plus, cross, cross, beta_minus], axis=-1)
    return np.stack([alpha_plus, alpha_minus], axis=-1), sigma.reshape(cross.shape + (2, 2))


def moment_matrices(summaries: tuple[EmpiricalSummary, EmpiricalSummary]) -> tuple[np.ndarray, np.ndarray]:
    """Empirical (alpha_n, Sigma_n) with the product-measure off-diagonal."""
    sp, sm = summaries
    return product_moments(sp.alpha_n, sm.alpha_n, sp.beta_n, sm.beta_n)


def _sigma_inverse(sigma: np.ndarray) -> np.ndarray:
    det = sigma[0, 0] * sigma[1, 1] - sigma[0, 1] * sigma[1, 0]
    scale = max(abs(sigma[0, 0]), abs(sigma[1, 1]), 1e-300)
    if abs(det) <= _DET_TOL * scale * scale:
        raise ValueError("degenerate empirical covariance")
    return np.array([[sigma[1, 1], -sigma[0, 1]], [-sigma[1, 0], sigma[0, 0]]]) / det


def _gram(summaries: tuple[EmpiricalSummary, EmpiricalSummary]):
    """(alpha_n, Sigma_n, P, g); raises unless Sigma_n is nonsingular and g < 1.
    A constant side makes g exactly 1, which rounding can put just below it."""
    alpha, sigma = moment_matrices(summaries)
    p = _sigma_inverse(sigma)
    g = float(alpha @ p @ alpha)
    if g >= 1.0 - _DET_TOL:
        raise ValueError(f"gram bound violated: alpha_n' P alpha_n = {g!r} >= 1 (one side is constant)")
    return alpha, sigma, p, g


def gram_bound_check(summaries: tuple[EmpiricalSummary, EmpiricalSummary]) -> float:
    """g = alpha_n' Sigma_n^{-1} alpha_n; strictly below one whenever both
    sides carry positive variance, and a ValueError otherwise."""
    return _gram(summaries)[3]


def profile_batch(alpha: np.ndarray, sigma: np.ndarray,
                  summaries: tuple[EmpiricalSummary, EmpiricalSummary]) -> np.ndarray:
    """Profile values R for a stack of targets, means alpha (k, 2) and second-moment
    matrices sigma (k, 2, 2) under MomentTarget's rules; n is summaries[0].n."""
    _check_targets(alpha, sigma)
    alpha_n, sigma_n, p, g = _gram(summaries)
    d = sigma_n - sigma
    v = alpha - alpha_n + d @ (p @ alpha_n)
    trace = np.einsum("kij,ji->k", d @ d, p)
    return (np.einsum("ki,ki->k", v, v) / (1.0 - g) + 3.0 * trace) / (4.0 * summaries[0].n)


def robust_profile(target: MomentTarget, summaries: tuple[EmpiricalSummary, EmpiricalSummary]) -> float:
    """Profile value R(alpha*, Sigma*) against the empirical summaries."""
    return float(profile_batch(np.array([target.alpha]), np.array([target.sigma]), summaries)[0])


@dataclass(frozen=True)
class RadiusSelection:
    """Bootstrap quantile of the profile, the radius it certifies, and the
    sample's gram statistic g."""

    delta_hat: float
    profile_quantile: float
    gram_bound: float


def check_chi(chi: float) -> None:
    if not (0.0 < chi < 1.0):
        raise ValueError("chi must be in (0, 1)")


def check_resamples(resamples: int) -> None:
    if not 100 <= resamples <= _RESAMPLES_MAX:
        raise ValueError(f"resamples must be between 100 and {_RESAMPLES_MAX}, got {resamples}")


def select_radius(
    samples_plus: SampleSet,
    samples_minus: SampleSet,
    chi: float,
    resamples: int = DEFAULT_RESAMPLES,
    rng_seed: int = 0,
) -> RadiusSelection:
    """Pick the smallest radius whose confidence condition R <= 2 delta^2
    holds at bootstrap level 1 - chi.

    Needs equal sample sizes, at least two a side, a nonsingular empirical
    second-moment matrix and g < 1. Each round resamples n points per side
    with replacement, forms that round's moment target, and evaluates the
    profile against the original summaries; delta_hat inverts the (1 - chi)
    empirical quantile. The quantile uses the "higher" order statistic:
    deterministic and conservative for coverage. The buy side's rounds are
    drawn first, then the sell side's, a block of rows at a time; the
    generator yields the same stream as one (resamples, n) draw per side.
    """
    check_chi(chi)
    check_resamples(resamples)
    n = samples_plus.n
    if n != samples_minus.n:
        raise ValueError(f"sample sizes must match across sides, got {n} buy "
                         f"and {samples_minus.n} sell")
    if n < 2:
        raise ValueError("need at least two samples per side")
    summaries = (empirical_moments(samples_plus), empirical_moments(samples_minus))
    g = gram_bound_check(summaries)  # raises on a degenerate covariance or g >= 1

    rng = np.random.default_rng(rng_seed)
    rows = max(1, _CHUNK // n)
    means, seconds = np.empty((2, resamples)), np.empty((2, resamples))
    for side, samples in enumerate((samples_plus, samples_minus)):
        x = samples.as_array()
        for start in range(0, resamples, rows):
            block = x[rng.integers(0, n, size=(min(rows, resamples - start), n))]
            means[side, start:start + len(block)] = block.mean(axis=1)
            seconds[side, start:start + len(block)] = (block * block).mean(axis=1)

    # one product-measure target per round
    values = profile_batch(*product_moments(means[0], means[1], seconds[0], seconds[1]), summaries)
    q = float(np.quantile(values, 1.0 - chi, method="higher"))
    q = max(q, 0.0)  # the trace term can round below zero
    return RadiusSelection(delta_hat=math.sqrt(q / 2.0), profile_quantile=q, gram_bound=g)
