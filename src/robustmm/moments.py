"""Empirical order-flow moments and their Wasserstein perturbation envelopes.

Each side of the book carries an i.i.d. sample of meta-order innovations.
A ball of radius-squared delta around the empirical law (exact squared
2-Wasserstein distance on the line) constrains how far an adversary can
move the first two moments:

    mean:            alpha in [alpha_n - sqrt(delta), alpha_n + sqrt(delta)]
    second moment:   ell(alpha) <= beta <= u(alpha)

with

    u(alpha) = beta_n + 2 (alpha - alpha_n) alpha_n + delta
               + 2 sqrt(beta_n - alpha_n^2) sqrt(delta - (alpha - alpha_n)^2)
    ell(alpha) = 2 (alpha - alpha_n) alpha_n + delta
               - 2 sqrt(beta_n - alpha_n^2) sqrt(delta - (alpha - alpha_n)^2)

The upper envelope is attained by an affine push of the sample; the raw
lower expression can dip below the hard floor alpha^2 and is clamped.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_SIDES = ("buy", "sell")

# Square-root arguments this close to zero are treated as exactly zero;
# anything more negative is a genuine infeasibility.
_FEAS_SLACK = 1e-14


@dataclass(frozen=True)
class SampleSet:
    """An i.i.d. sample of meta-order innovations for one side of the book."""

    side: str
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.side not in _SIDES:
            raise ValueError(f"side must be one of {_SIDES}, got {self.side!r}")
        values = tuple(float(v) for v in self.values)
        if len(values) == 0:
            raise ValueError("no samples")
        if not all(math.isfinite(v) for v in values):
            raise ValueError("sample values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)


@dataclass(frozen=True)
class EmpiricalSummary:
    """First two sample moments: alpha_n = mean, beta_n = mean of squares."""

    alpha_n: float
    beta_n: float
    variance: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("no samples")
        if not (
            math.isfinite(self.alpha_n)
            and math.isfinite(self.beta_n)
            and math.isfinite(self.variance)
        ):
            raise ValueError("summary moments must be finite")
        if self.variance < 0:
            raise ValueError("variance must be nonnegative")


def empirical_moments(samples: SampleSet) -> EmpiricalSummary:
    """Summarize a sample set by its first two moments.

    The variance beta_n - alpha_n^2 is clamped at zero when rounding in
    the subtraction leaves a value within -1e-12 of zero; a larger
    negative gap would signal corrupted inputs and raises.
    """
    if len(samples.values) == 0:
        raise ValueError("no samples")
    x = samples.as_array()
    alpha = float(np.mean(x))
    beta = float(np.mean(x * x))
    var = beta - alpha * alpha
    scale = 1.0 + abs(beta)
    if var < -1e-12 * scale:
        raise ValueError("second moment is smaller than squared mean")
    return EmpiricalSummary(alpha_n=alpha, beta_n=beta, variance=max(var, 0.0), n=samples.n)


def alpha_range(summary: EmpiricalSummary, delta: float) -> tuple[float, float]:
    """Attainable mean interval inside the radius-squared-delta ball."""
    if delta < 0:
        raise ValueError("negative radius")
    r = math.sqrt(delta)
    return (summary.alpha_n - r, summary.alpha_n + r)


def _deviation_root(summary: EmpiricalSummary, delta: float, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Return (dev, sqrt(delta - dev^2)) with the feasibility clamp applied,
    elementwise over a scalar or an array alpha."""
    if delta < 0:
        raise ValueError("negative radius")
    dev = np.asarray(alpha, dtype=float) - summary.alpha_n
    rem = delta - dev * dev
    if np.any(rem < -_FEAS_SLACK * (1.0 + delta)):
        raise ValueError("alpha infeasible")
    return dev, np.sqrt(np.maximum(rem, 0.0))


def beta_bounds(summary: EmpiricalSummary, delta: float, alpha: float) -> tuple[float, float]:
    """Second-moment range [lower, upper] attainable at a given mean alpha.

    lower is the raw envelope ell(alpha) clamped below by the hard floor
    alpha^2 (a distribution with mean alpha cannot have a smaller second
    moment).
    """
    dev, root = _deviation_root(summary, delta, alpha)
    sd = math.sqrt(summary.variance)
    upper = summary.beta_n + 2.0 * dev * summary.alpha_n + delta + 2.0 * sd * root
    raw_lower = 2.0 * dev * summary.alpha_n + delta - 2.0 * sd * root
    return (max(float(raw_lower), alpha * alpha), float(upper))


def beta_lower_raw(summary: EmpiricalSummary, delta: float, alpha: float) -> float:
    """Unclamped lower envelope ell(alpha); diagnostic only.

    The printed expression can fall below alpha^2 (even below zero), in
    which case it is not attained by any distribution. beta_bounds clamps
    it; this accessor exposes the raw value so validation reports can
    show the discrepancy.
    """
    dev, root = _deviation_root(summary, delta, alpha)
    sd = math.sqrt(summary.variance)
    return float(2.0 * dev * summary.alpha_n + delta - 2.0 * sd * root)


def theorem_beta_envelope(summary: EmpiricalSummary, delta: float, alpha):
    """Worst-case second moment pinned by the inner adversary:

        beta(alpha) = (sqrt(beta_n - alpha_n^2) + sqrt(delta - (alpha - alpha_n)^2))^2
                      + alpha^2

    Algebraically identical to the upper bound of beta_bounds; kept as a
    separate code path so the identity can be checked rather than assumed.
    At delta = 0 the expression collapses to beta_n exactly. A scalar
    alpha gives a float, an array of means an array.
    """
    dev, root = _deviation_root(summary, delta, alpha)
    s = math.sqrt(summary.variance) + root
    a = np.asarray(alpha, dtype=float)
    beta = np.where((dev == 0.0) & (root == 0.0), summary.beta_n, s * s + a * a)
    return float(beta) if beta.ndim == 0 else beta


def read_sample_csv(path: str | Path, side: str) -> SampleSet:
    """Read one sample per line from a single-column CSV.

    An optional first line "value" is treated as a header; blank lines
    are skipped.
    """
    path = Path(path)
    values: list[float] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            tok = line.strip()
            if not tok:
                continue
            if lineno == 1 and tok.lower() == "value":
                continue
            try:
                values.append(float(tok))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: cannot parse {tok!r} as a number") from exc
    if not values:
        raise ValueError(f"{path}: no samples")
    return SampleSet(side=side, values=tuple(values))
