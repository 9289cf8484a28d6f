"""Empirical order-flow moments and the moments a Wasserstein budget leaves.

Each side of the book carries an i.i.d. sample of meta-order innovations.
A ball of radius-squared delta around the empirical law (exact squared
2-Wasserstein distance on the line) constrains how far an adversary can
move the first two moments. Reaching mean a and standard deviation sd costs
exactly (a - alpha_n)^2 + (sd - sd_n)^2 (Gelbrich 1990), so on each side the
feasible moments are the disk

    (a - alpha_n)^2 + (sd - sd_n)^2 <= delta,   b = sd^2 + a^2,

and c = a+ a- across the two independent sides. MomentSet owns that set: a
path in t along the disks' upper arcs, where the worst case lies, and the
least of a linear function over the set. The closed forms below describe the
same disk in alpha coordinates, for the validation table:

    mean:            alpha in [alpha_n - sqrt(delta), alpha_n + sqrt(delta)]
    second moment:   ell(alpha) <= beta <= u(alpha)

with

    u(alpha) = beta_n + 2 (alpha - alpha_n) alpha_n + delta
               + 2 sqrt(beta_n - alpha_n^2) sqrt(delta - (alpha - alpha_n)^2)
    ell(alpha) = 2 (alpha - alpha_n) alpha_n + delta
               - 2 sqrt(beta_n - alpha_n^2) sqrt(delta - (alpha - alpha_n)^2)

The upper envelope is attained by an affine push of the sample. The
printed lower expression is not attained: the exact lower end, from the
same push, is alpha^2 + max(sd_n - r, 0)^2 with
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


@dataclass(frozen=True)
class MomentSet:
    """The moments a transport budget delta leaves the two sides: the per-side
    disks of the module docstring. The worst case lies on their upper arcs,
    the path of t in [-pi/2, pi/2]^2."""

    summaries: tuple[EmpiricalSummary, EmpiricalSummary]
    delta: float

    def __post_init__(self) -> None:
        check_radius(self.delta)

    def path(self, t: np.ndarray) -> tuple:
        """Per side, the point (a, b) at t, a = alpha_n + r sin t, sd = sd_n + r cos t,
        b = sd^2 + a^2, then its velocity (a', b') = (r cos t, 2 r (a cos t - sd sin t))
        and curvature (a'', b'') = (-r sin t, 2 r (r - a sin t - sd cos t)) in t. At
        delta = 0 the point is (alpha_n, beta_n) exactly. Extreme radii overflow to inf."""
        r, sin, cos = math.sqrt(self.delta), np.sin(t), np.cos(t)
        alpha_n, beta_n, sd_n = np.array([(s.alpha_n, s.beta_n, math.sqrt(s.variance)) for s in self.summaries]).T
        with np.errstate(over="ignore", invalid="ignore"):
            a, sd = alpha_n + r * sin, sd_n + r * cos
            return (a, sd * sd + a * a if r > 0.0 else beta_n, (r * cos, 2.0 * r * (a * cos - sd * sin)),
                    (-r * sin, 2.0 * r * (r - a * sin - sd * cos)))

    def linear_min(self, g: np.ndarray, t: np.ndarray) -> tuple[float, np.ndarray]:
        """Frank-Wolfe gap g.(x(t) - x') and the t of x', a minimizer of g.x over the set. Along the
        path, with c = a+ a-, g.x = (p0 + p1 s-) s+ + q+ cos t+ + R s- + q- cos t- + const in s = sin t,
        q = 2 r sd_n g_b <= 0. The least over t+ is -W, W^2 = (p0 + p1 s-)^2 + q+^2; phi(s) = R s
        + q- w - W, w^2 = 1 - s^2, is least at +-1, at t's own s-, or where (R^2 w^2 + q-^2 s^2) W^2
        - p1^2 (p0 + p1 s)^2 w^2 = 2 R q- s w W^2: squared, degree 8."""
        r, (sp, sm), norm = math.sqrt(self.delta), self.summaries, max(float(np.max(np.abs(g))), np.finfo(float).tiny)
        ap, am, bp, bm, c = g / norm
        coef = r * np.array([ap + 2.0 * sp.alpha_n * bp + c * sm.alpha_n, r * c, 2.0 * math.sqrt(sp.variance) * bp,
                             am + 2.0 * sm.alpha_n * bm + c * sp.alpha_n, 2.0 * math.sqrt(sm.variance) * bm])
        scale = max(float(np.max(np.abs(coef))), np.finfo(float).tiny)
        p0, p1, qp, R, qm = coef / scale
        w2, L2 = np.array([-1.0, 0.0, 1.0]), np.array([p1 * p1, 2.0 * p0 * p1, p0 * p0])
        W2 = L2 + [0.0, 0.0, qp * qp]
        lhs = np.convolve(R * R * w2 + [qm * qm, 0.0, 0.0], W2) - p1 * p1 * np.convolve(L2, w2)
        poly = np.convolve(lhs, lhs) - 4.0 * (R * qm) ** 2 * np.convolve([1.0, 0, 0],
                                                                         np.convolve(w2, np.convolve(W2, W2)))
        # leading terms within the others' rounding move no root of [-1, 1]; dropped, they cannot overflow np.roots
        poly = poly[np.argmax(np.abs(poly) > 1e-14 * np.max(np.abs(poly))):]
        s = np.clip(np.concatenate(([-1.0, 1.0, math.sin(t[1])], np.roots(poly).real)), -1.0, 1.0)
        phi = R * s + qm * np.sqrt(1.0 - s * s) - np.hypot(p0 + p1 * s, qp)
        k, (sin_p, sin_m) = int(np.argmin(phi)), np.sin(t)
        here = (p0 + p1 * sin_m) * sin_p + qp * math.cos(t[0]) + R * sin_m + qm * math.cos(t[1])
        return max(float(here - phi[k]), 0.0) * scale * norm, np.array([math.atan2(-(p0 + p1 * s[k]), abs(qp)),
                                                                       math.asin(s[k])])


def alpha_range(summary: EmpiricalSummary, delta: float) -> tuple[float, float]:
    """Attainable mean interval inside the radius-squared-delta ball."""
    check_radius(delta)
    r = math.sqrt(delta)
    return (summary.alpha_n - r, summary.alpha_n + r)


def _deviation_root(summary: EmpiricalSummary, delta: float, alpha: float) -> tuple[float, float]:
    """Return (dev, sqrt(delta - dev^2)) with the feasibility clamp applied."""
    check_radius(delta)
    dev = alpha - summary.alpha_n
    rem = delta - dev * dev
    if rem < -_FEAS_SLACK * (1.0 + delta):
        raise ValueError("alpha infeasible")
    return dev, math.sqrt(max(rem, 0.0))


def beta_lower_raw(summary: EmpiricalSummary, delta: float, alpha: float) -> float:
    """The printed lower envelope ell(alpha); diagnostic only.

    When sd_n >= r it equals the exact lower end alpha^2 + (sd_n - r)^2 of the
    module docstring minus beta_n, and otherwise it is not attained by any
    distribution (it can fall below alpha^2, even below zero). Validation
    reports show it beside the oracle's minimum.
    """
    dev, root = _deviation_root(summary, delta, alpha)
    sd = math.sqrt(summary.variance)
    return 2.0 * dev * summary.alpha_n + delta - 2.0 * sd * root


def theorem_beta_envelope(summary: EmpiricalSummary, delta: float, alpha: float) -> float:
    """Worst-case second moment pinned by the inner adversary:

        beta(alpha) = (sqrt(beta_n - alpha_n^2) + sqrt(delta - (alpha - alpha_n)^2))^2
                      + alpha^2

    It is u(alpha), the upper end of the module docstring's second-moment
    range. At delta = 0 the expression collapses to beta_n exactly.
    """
    dev, root = _deviation_root(summary, delta, alpha)
    if dev == 0.0 and root == 0.0:
        return summary.beta_n
    s = math.sqrt(summary.variance) + root
    return s * s + alpha * alpha


def read_text_lines(path: Path) -> list[str]:
    """The lines of a UTF-8 file, decoded whole so that a bad byte is reported
    with the path and its offset in the file. A leading byte-order mark is
    dropped; line ends are universal newlines. A file that cannot be opened or
    read is reported as "<path>: cannot read (<reason>)". Every input file is
    read here."""
    try:
        return path.read_text(encoding="utf-8").removeprefix("\ufeff").split("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    except OSError as exc:
        raise ValueError(f"{path}: cannot read ({exc.strerror})") from exc


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
