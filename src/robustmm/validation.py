"""Dual-route validation: closed forms against transport-duality brackets.

Every row pits an analytic quantity (mean endpoints, second-moment
envelope, profile identities) against an independent oracle computation.
The moment rows compare with moment_range_search's bracket: the closed
form must match the witness value within tol and lie inside the bracket
[value, bound] up to rounding. Rows marked diagnostic report known-lossy
expressions (the raw lower envelope, the profile-versus-primal scaling)
and carry no pass verdict.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
# rounding room, relative to 1 + |analytic|, when a closed form is held
# inside an oracle bracket
BRACKET_SLACK = 1e-9

_INTERIOR_FRACTIONS = (-0.8, -0.4, 0.0, 0.4, 0.8)


@dataclass(frozen=True)
class CheckRow:
    check: str
    analytic: float
    oracle: float
    oracle_bound: float | None  # None on rows that are not brackets
    abs_err: float
    rel_err: float
    passed: bool | None  # None marks a diagnostic row

    def as_dict(self) -> dict:
        # vars, not dataclasses.asdict: asdict deep-copies every field, 15 us a row
        row = dict(vars(self))
        row["pass"] = row.pop("passed")
        return row


def _row(check: str, analytic: float, oracle: float, bound: float | None, tol: float | None) -> CheckRow:
    """A bracket row (bound given) passes only with the analytic value
    inside [oracle, bound], up to BRACKET_SLACK."""
    abs_err = abs(analytic - oracle)
    rel_err = abs_err / (1.0 + abs(analytic))
    passed = None if tol is None else bool(rel_err <= tol)
    if passed and bound is not None:
        slack = BRACKET_SLACK * (1.0 + abs(analytic))
        passed = bool(min(oracle, bound) - slack <= analytic <= max(oracle, bound) + slack)
    return CheckRow(check, analytic, oracle, bound, abs_err, rel_err, passed)


def envelope_check_rows(side: str, measure: DiscreteMeasure, summary: EmpiricalSummary,
                        delta: float, tol: float) -> list[CheckRow]:
    """Mean endpoints and the second-moment envelope for one side, bracketed in one pass."""
    lo, hi = alpha_range(summary, delta)
    at = f"{side},delta={delta:g}"
    checks = [(f"mean_max[{at}]", hi, "max_mean", None, tol),
              (f"mean_min[{at}]", lo, "min_mean", None, tol)]
    root = math.sqrt(delta)
    for frac in _INTERIOR_FRACTIONS:
        alpha = summary.alpha_n + frac * root
        checks.append((f"beta_upper[{at},t={frac:g}]", beta_bounds(summary, delta, alpha)[1],
                       "max_second_moment", alpha, tol))
    # the printed lower envelope, which misses beta_n; beta_bounds gives the exact end
    alpha = summary.alpha_n
    checks.append((f"beta_lower_raw[{at}]", beta_lower_raw(summary, delta, alpha),
                   "min_second_moment", alpha, None))
    brackets = moment_range_search(measure, delta, [c[2] for c in checks], [c[3] for c in checks])
    return [_row(name, analytic, value, bound, row_tol)
            for (name, analytic, _, _, row_tol), (value, bound) in zip(checks, brackets)]


def profile_check_rows(measures: tuple[DiscreteMeasure, DiscreteMeasure],
                       summaries: tuple[EmpiricalSummary, EmpiricalSummary], tol: float) -> list[CheckRow]:
    """Profile identities plus the profile-versus-primal diagnostic."""
    alpha_n, sigma_n = moment_matrices(summaries)
    rows = []

    center = MomentTarget(alpha=tuple(alpha_n), sigma=tuple(map(tuple, sigma_n)))
    rows.append(_row("profile_at_empirical", 0.0, robust_profile(center, summaries), None, tol))

    g = gram_bound_check(summaries)
    rows.append(replace(_row("gram_bound_below_one", 1.0, g, None, None), passed=bool(g < 1.0)))

    # 50 general symmetric targets; each draws two mean and four matrix normals
    draws = np.random.default_rng(7).normal(scale=0.3, size=(50, 6))
    alpha = alpha_n + draws[:, :2]
    bump = draws[:, 2:].reshape(50, 2, 2)
    sigma = sigma_n + 0.5 * (bump + bump.transpose(0, 2, 1))
    for k in range(2):
        sigma[:, k, k] = np.maximum(sigma[:, k, k], alpha[:, k] ** 2 + 0.05)
    worst = float(np.min(profile_batch(alpha, sigma, summaries)))
    rows.append(_row("profile_nonnegative_min", 0.0, min(worst, 0.0), None, tol))

    # scaled-variant diagnostic: formula value vs the primal transport cost
    # of hitting the same per-side moments; bump mean and variance
    # separately so the target second moment always dominates the mean
    a_p = summaries[0].alpha_n + 0.2
    a_m = summaries[1].alpha_n - 0.1
    v_p = summaries[0].variance * 1.2
    v_m = summaries[1].variance * 1.1
    target = MomentTarget.from_moments(a_p, a_m, a_p**2 + v_p, a_m**2 + v_m)
    formula = robust_profile(target, summaries)
    primal = min_cost_given_moments(measures[0], target.alpha[0], target.sigma[0][0]) + min_cost_given_moments(
        measures[1], target.alpha[1], target.sigma[1][1])
    rows.append(_row("profile_vs_primal_cost", formula, primal, None, None))
    return rows


def metric_check_rows(tol: float) -> list[CheckRow]:
    """Closed-form transport distances the quantile coupling must hit."""
    a = DiscreteMeasure.from_points([0.0])
    b = DiscreteMeasure.from_points([3.0])
    rows = [_row("w2_point_masses", 9.0, w2_squared(a, b), None, tol)]
    p = DiscreteMeasure.from_points([0.0, 2.0])
    q = DiscreteMeasure.from_points([1.0, 3.0])
    rows.append(_row("w2_shifted_pair", 1.0, w2_squared(p, q), None, tol))
    rows.append(_row("w2_self", 0.0, w2_squared(p, p), None, tol))
    return rows


def run_validation(samples_plus: SampleSet, samples_minus: SampleSet,
                   deltas: tuple[float, ...], tol: float) -> list[CheckRow]:
    # each side's measure and summary serve every budget, so its atoms are sorted once
    sides = (samples_plus, samples_minus)
    measures = tuple(DiscreteMeasure.from_samples(samples) for samples in sides)
    summaries = tuple(empirical_moments(samples) for samples in sides)
    rows = metric_check_rows(tol)
    for delta in deltas:
        for samples, measure, summary in zip(sides, measures, summaries):
            rows.extend(envelope_check_rows(samples.side, measure, summary, delta, tol))
    rows.extend(profile_check_rows(measures, summaries, tol))
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
