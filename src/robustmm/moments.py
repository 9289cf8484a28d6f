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

The upper envelope is attained by an affine push of the sample. The
printed lower expression is not attained: the exact lower end, from the
same push (Gelbrich 1990), is alpha^2 + max(sd_n - r, 0)^2 with
r = sqrt(delta - (alpha - alpha_n)^2), which is beta_n + ell(alpha)
when sd_n >= r.
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

# the radius profile takes fourth powers of the values: keep them far inside the float range
_SAMPLE_ABS_MAX = 1e50


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
        if not all(abs(v) <= _SAMPLE_ABS_MAX for v in values):
            raise ValueError(f"sample values must be finite and at most {_SAMPLE_ABS_MAX:g} in magnitude")
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
    x = samples.as_array()
    alpha = float(np.mean(x))
    beta = float(np.mean(x * x))
    var = beta - alpha * alpha
    scale = 1.0 + abs(beta)
    if var < -1e-12 * scale:
        raise ValueError("second moment is smaller than squared mean")
    return EmpiricalSummary(alpha_n=alpha, beta_n=beta, variance=max(var, 0.0), n=samples.n)


def check_radius(delta: float) -> None:
    """A transport budget (radius squared) is finite and nonnegative."""
    if not math.isfinite(delta):
        raise ValueError(f"radius must be finite, got {delta!r}")
    if delta < 0:
        raise ValueError("negative radius")


def alpha_range(summary: EmpiricalSummary, delta: float) -> tuple[float, float]:
    """Attainable mean interval inside the radius-squared-delta ball."""
    check_radius(delta)
    r = math.sqrt(delta)
    return (summary.alpha_n - r, summary.alpha_n + r)


def _deviation_root(summary: EmpiricalSummary, delta: float, alpha) -> tuple[np.ndarray, np.ndarray]:
    """Return (dev, sqrt(delta - dev^2)) with the feasibility clamp applied,
    elementwise over a scalar or an array alpha."""
    check_radius(delta)
    dev = np.asarray(alpha, dtype=float) - summary.alpha_n
    rem = delta - dev * dev
    if np.any(rem < -_FEAS_SLACK * (1.0 + delta)):
        raise ValueError("alpha infeasible")
    return dev, np.sqrt(np.maximum(rem, 0.0))


def beta_bounds(summary: EmpiricalSummary, delta: float, alpha: float) -> tuple[float, float]:
    """Second-moment range [lower, upper] attainable at a given mean alpha.

    Reaching mean alpha and standard deviation s costs exactly
    (alpha - alpha_n)^2 + (s - sd_n)^2, so the budget leaves
    |s - sd_n| <= r with r = sqrt(delta - (alpha - alpha_n)^2), and
    lower = alpha^2 + max(sd_n - r, 0)^2. The upper end is
    theorem_beta_envelope, the function the solve reports beta with.
    """
    dev, root = _deviation_root(summary, delta, alpha)
    low_sd = max(math.sqrt(summary.variance) - float(root), 0.0)
    return (alpha * alpha + low_sd * low_sd, _upper_envelope(summary, alpha, dev, root))


def beta_lower_raw(summary: EmpiricalSummary, delta: float, alpha: float) -> float:
    """The printed lower envelope ell(alpha); diagnostic only.

    When sd_n >= r it equals the exact lower end of beta_bounds minus
    beta_n, and otherwise it is not attained by any distribution (it can
    fall below alpha^2, even below zero). Validation reports show it
    beside the oracle's minimum.
    """
    dev, root = _deviation_root(summary, delta, alpha)
    sd = math.sqrt(summary.variance)
    return float(2.0 * dev * summary.alpha_n + delta - 2.0 * sd * root)


def theorem_beta_envelope(summary: EmpiricalSummary, delta: float, alpha):
    """Worst-case second moment pinned by the inner adversary:

        beta(alpha) = (sqrt(beta_n - alpha_n^2) + sqrt(delta - (alpha - alpha_n)^2))^2
                      + alpha^2

    It is the upper end of beta_bounds. At delta = 0 the expression
    collapses to beta_n exactly. A scalar alpha gives a float, an array
    of means an array.
    """
    return _upper_envelope(summary, alpha, *_deviation_root(summary, delta, alpha))


def _upper_envelope(summary: EmpiricalSummary, alpha, dev: np.ndarray, root: np.ndarray):
    """theorem_beta_envelope from the deviation and root of _deviation_root."""
    s = math.sqrt(summary.variance) + root
    a = np.asarray(alpha, dtype=float)
    beta = np.where((dev == 0.0) & (root == 0.0), summary.beta_n, s * s + a * a)
    return float(beta) if beta.ndim == 0 else beta


def read_text_lines(path: Path) -> list[str]:
    """The lines of a UTF-8 file, decoded whole so that a bad byte is reported
    with the path and its offset in the file. A leading byte-order mark is
    dropped; line ends are universal newlines. Every input file is read here."""
    try:
        return path.read_text(encoding="utf-8").removeprefix("\ufeff").split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def read_sample_csv(path: str | Path, side: str) -> SampleSet:
    """Read one sample per line from a single-column CSV.

    An optional first line "value" is treated as a header; blank lines
    are skipped.
    """
    path = Path(path)
    values: list[float] = []
    for lineno, line in enumerate(read_text_lines(path), start=1):
        tok = line.strip()
        if not tok or (lineno == 1 and tok.lower() == "value"):
            continue
        try:
            values.append(float(tok))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: cannot parse {tok!r} as a number") from exc
    try:
        return SampleSet(side=side, values=tuple(values))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
