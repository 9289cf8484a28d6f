"""Dual-route validation: closed forms against brute-force transport search.

Every row pits an analytic quantity (mean endpoints, second-moment
envelope, profile identities) against an independent oracle computation.
Rows marked diagnostic report known-lossy expressions (the raw lower
envelope, the profile-versus-primal scaling) and carry no pass verdict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import (
    EmpiricalSummary,
    SampleSet,
    alpha_range,
    beta_bounds,
    beta_lower_raw,
    empirical_moments,
)
from .oracle import (
    DiscreteMeasure,
    min_cost_given_moments,
    moment_range_search,
    w2_squared,
)
from .profile import MomentTarget, gram_bound_check, moment_matrices, profile_batch, robust_profile

DEFAULT_TOL = 1e-4
DEFAULT_DELTAS = (0.01, 0.04, 0.25)

_INTERIOR_FRACTIONS = (-0.8, -0.4, 0.0, 0.4, 0.8)


@dataclass(frozen=True)
class CheckRow:
    check: str
    analytic: float
    oracle: float
    abs_err: float
    rel_err: float
    passed: bool | None  # None marks a diagnostic row

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "analytic": self.analytic,
            "oracle": self.oracle,
            "abs_err": self.abs_err,
            "rel_err": self.rel_err,
            "pass": self.passed,
        }


def _row(check: str, analytic: float, oracle: float, tol: float | None) -> CheckRow:
    abs_err = abs(analytic - oracle)
    rel_err = abs_err / (1.0 + abs(analytic))
    passed = None if tol is None else bool(rel_err <= tol)
    return CheckRow(check, analytic, oracle, abs_err, rel_err, passed)


def envelope_check_rows(
    samples: SampleSet,
    delta: float,
    tol: float = DEFAULT_TOL,
    label: str | None = None,
) -> list[CheckRow]:
    """Mean endpoints and the second-moment envelope for one side."""
    label = label or samples.side
    summary = empirical_moments(samples)
    measure = DiscreteMeasure.from_samples(samples)
    lo, hi = alpha_range(summary, delta)
    rows = [
        _row(
            f"mean_max[{label},delta={delta:g}]",
            hi,
            moment_range_search(measure, delta, "max_mean"),
            tol,
        ),
        _row(
            f"mean_min[{label},delta={delta:g}]",
            lo,
            moment_range_search(measure, delta, "min_mean"),
            tol,
        ),
    ]
    root = math.sqrt(delta)
    for frac in _INTERIOR_FRACTIONS:
        alpha = summary.alpha_n + frac * root
        lower, upper = beta_bounds(summary, delta, alpha)
        rows.append(
            _row(
                f"beta_upper[{label},delta={delta:g},t={frac:g}]",
                upper,
                moment_range_search(measure, delta, "max_second_moment", alpha=alpha),
                tol,
            )
        )
    # raw lower envelope: clamped in beta_bounds, shown here unclamped
    alpha = summary.alpha_n
    raw = beta_lower_raw(summary, delta, alpha)
    oracle_min = moment_range_search(measure, delta, "min_second_moment", alpha=alpha)
    rows.append(_row(f"beta_lower_raw[{label},delta={delta:g}]", raw, oracle_min, None))
    return rows


def profile_check_rows(
    samples_plus: SampleSet,
    samples_minus: SampleSet,
    tol: float = DEFAULT_TOL,
    rng_seed: int = 7,
) -> list[CheckRow]:
    """Profile identities plus the profile-versus-primal diagnostic."""
    summaries = (empirical_moments(samples_plus), empirical_moments(samples_minus))
    n = samples_plus.n
    alpha_n, sigma_n = moment_matrices(summaries)
    rows = []

    center = MomentTarget(alpha=tuple(alpha_n), sigma=tuple(map(tuple, sigma_n)))
    rows.append(_row("profile_at_empirical", 0.0, robust_profile(center, summaries, n), tol))

    g = gram_bound_check(summaries)
    rows.append(
        CheckRow(
            check="gram_bound_below_one",
            analytic=1.0,
            oracle=g,
            abs_err=abs(1.0 - g),
            rel_err=abs(1.0 - g) / 2.0,
            passed=bool(g < 1.0),
        )
    )

    # 50 general symmetric targets; each draws two mean and four matrix normals
    draws = np.random.default_rng(rng_seed).normal(scale=0.3, size=(50, 6))
    alpha = alpha_n + draws[:, :2]
    bump = draws[:, 2:].reshape(50, 2, 2)
    sigma = sigma_n + 0.5 * (bump + bump.transpose(0, 2, 1))
    for k in range(2):
        sigma[:, k, k] = np.maximum(sigma[:, k, k], alpha[:, k] ** 2 + 0.05)
    worst = float(np.min(profile_batch(alpha, sigma, summaries, n)))
    rows.append(_row("profile_nonnegative_min", 0.0, min(worst, 0.0), tol))

    # scaled-variant diagnostic: formula value vs the primal transport cost
    # of hitting the same per-side moments; bump mean and variance
    # separately so the target second moment always dominates the mean
    a_p = summaries[0].alpha_n + 0.2
    a_m = summaries[1].alpha_n - 0.1
    v_p = summaries[0].variance * 1.2
    v_m = summaries[1].variance * 1.1
    target = MomentTarget.from_moments(a_p, a_m, a_p**2 + v_p, a_m**2 + v_m)
    formula = robust_profile(target, summaries, n)
    primal = min_cost_given_moments(
        DiscreteMeasure.from_samples(samples_plus),
        target.alpha[0],
        target.sigma[0][0],
    ) + min_cost_given_moments(
        DiscreteMeasure.from_samples(samples_minus),
        target.alpha[1],
        target.sigma[1][1],
    )
    rows.append(_row("profile_vs_primal_cost", formula, primal, None))
    return rows


def metric_check_rows(tol: float = DEFAULT_TOL) -> list[CheckRow]:
    """Closed-form transport distances the quantile coupling must hit."""
    a = DiscreteMeasure.from_points([0.0])
    b = DiscreteMeasure.from_points([3.0])
    rows = [_row("w2_point_masses", 9.0, w2_squared(a, b), tol)]
    p = DiscreteMeasure.from_points([0.0, 2.0])
    q = DiscreteMeasure.from_points([1.0, 3.0])
    rows.append(_row("w2_shifted_pair", 1.0, w2_squared(p, q), tol))
    rows.append(_row("w2_self", 0.0, w2_squared(p, p), tol))
    return rows


def run_validation(
    samples_plus: SampleSet,
    samples_minus: SampleSet,
    deltas: tuple[float, ...] = DEFAULT_DELTAS,
    tol: float = DEFAULT_TOL,
) -> list[CheckRow]:
    rows = metric_check_rows(tol)
    for delta in deltas:
        rows.extend(envelope_check_rows(samples_plus, delta, tol))
        rows.extend(envelope_check_rows(samples_minus, delta, tol))
    rows.extend(profile_check_rows(samples_plus, samples_minus, tol))
    return rows


def format_table(rows: list[CheckRow]) -> str:
    header = f"{'check':42s} {'analytic':>14s} {'oracle':>14s} {'abs_err':>10s} {'rel_err':>10s} {'pass':>5s}"
    lines = [header, "-" * len(header)]
    for r in rows:
        verdict = "n/a" if r.passed is None else ("ok" if r.passed else "FAIL")
        lines.append(
            f"{r.check:42s} {r.analytic:14.6g} {r.oracle:14.6g} {r.abs_err:10.2e} {r.rel_err:10.2e} {verdict:>5s}"
        )
    return "\n".join(lines)
