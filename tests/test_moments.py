import math

import numpy as np
import pytest

from robustmm import (
    EmpiricalSummary,
    SampleSet,
    alpha_range,
    beta_lower_raw,
    empirical_moments,
    read_sample_csv,
    theorem_beta_envelope,
)

from helpers import beta_bounds


def test_empirical_moments_symmetric_triple():
    s = empirical_moments(SampleSet("buy", (-1.0, 0.0, 1.0)))
    assert s.alpha_n == 0.0
    assert s.beta_n == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert s.variance == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert s.n == 3


def test_empirical_moments_single_point():
    s = empirical_moments(SampleSet("sell", (0.7,)))
    assert s.alpha_n == 0.7
    assert s.variance == 0.0


def test_sample_set_rejects_empty():
    with pytest.raises(ValueError, match="no samples"):
        SampleSet("buy", ())


def test_sample_set_rejects_non_finite():
    with pytest.raises(ValueError):
        SampleSet("buy", (1.0, float("nan")))


def test_sample_set_rejects_unknown_side():
    with pytest.raises(ValueError):
        SampleSet("mid", (1.0,))


def test_alpha_range_width():
    s = empirical_moments(SampleSet("buy", (0.5, 1.5)))
    lo, hi = alpha_range(s, 0.04)
    assert lo == pytest.approx(1.0 - 0.2, abs=1e-15)
    assert hi == pytest.approx(1.0 + 0.2, abs=1e-15)


def test_alpha_range_rejects_negative_radius():
    s = empirical_moments(SampleSet("buy", (0.5, 1.5)))
    with pytest.raises(ValueError, match="negative radius"):
        alpha_range(s, -0.01)


@pytest.mark.parametrize("delta", [math.nan, math.inf], ids=["nan", "inf"])
def test_envelopes_reject_non_finite_radius(delta):
    s = empirical_moments(SampleSet("buy", (0.5, 1.5)))
    for envelope in (lambda: alpha_range(s, delta), lambda: beta_lower_raw(s, delta, s.alpha_n),
                     lambda: theorem_beta_envelope(s, delta, s.alpha_n)):
        with pytest.raises(ValueError, match="radius must be finite"):
            envelope()


def test_envelope_centered_unit_variance():
    # var = 1, delta = 0.25, alpha at the center: (1 + 0.5)^2 + 0
    s = EmpiricalSummary(alpha_n=0.0, beta_n=1.0, variance=1.0, n=3)
    assert theorem_beta_envelope(s, 0.25, 0.0) == pytest.approx(2.25, rel=1e-15)


def test_envelope_shifted_center():
    s = EmpiricalSummary(alpha_n=0.3, beta_n=1.09, variance=1.0, n=4)
    assert theorem_beta_envelope(s, 0.04, 0.3) == pytest.approx(1.53, rel=1e-15)


def test_envelope_at_zero_radius_is_empirical_second_moment():
    s = empirical_moments(SampleSet("buy", (0.4, 1.1, 0.7)))
    assert theorem_beta_envelope(s, 0.0, s.alpha_n) == s.beta_n


def test_envelope_takes_arrays():
    # one mean gives a float; the center of a zero-radius ball gives beta_n
    # exactly, and a mean outside the box is infeasible
    s = empirical_moments(SampleSet("buy", (0.2, 0.9, 1.4)))
    lo, hi = alpha_range(s, 0.09)
    assert type(theorem_beta_envelope(s, 0.09, (lo + hi) / 2.0)) is float
    assert theorem_beta_envelope(s, 0.0, s.alpha_n) == s.beta_n
    with pytest.raises(ValueError, match="alpha infeasible"):
        theorem_beta_envelope(s, 0.09, hi + 0.1)


def test_envelope_matches_expanded_form():
    rng = np.random.default_rng(5)
    for _ in range(200):
        vals = rng.uniform(0.1, 2.0, size=int(rng.integers(2, 7)))
        s = empirical_moments(SampleSet("buy", tuple(vals)))
        delta = float(rng.uniform(0.001, 0.5))
        frac = float(rng.uniform(-0.999, 0.999))
        alpha = s.alpha_n + frac * math.sqrt(delta)
        d = alpha - s.alpha_n
        expanded = (s.beta_n + delta + 2.0 * s.alpha_n * d
                    + 2.0 * math.sqrt(s.variance * (delta - d * d)))
        env = theorem_beta_envelope(s, delta, alpha)
        assert abs(env - expanded) <= 1e-12 * (1.0 + abs(expanded))


def test_beta_bounds_clamped_below_by_alpha_squared():
    rng = np.random.default_rng(11)
    for _ in range(100):
        vals = rng.uniform(0.1, 2.0, size=5)
        s = empirical_moments(SampleSet("sell", tuple(vals)))
        delta = float(rng.uniform(0.001, 0.3))
        alpha = s.alpha_n + float(rng.uniform(-0.9, 0.9)) * math.sqrt(delta)
        lo, hi = beta_bounds(s, delta, alpha)
        assert lo >= alpha * alpha - 1e-15
        assert hi >= lo
        assert lo >= beta_lower_raw(s, delta, alpha) - 1e-15


def test_beta_bounds_infeasible_alpha_raises():
    s = empirical_moments(SampleSet("buy", (0.5, 1.0)))
    for bounds in (beta_bounds, beta_lower_raw):
        with pytest.raises(ValueError, match="alpha infeasible"):
            bounds(s, 0.01, s.alpha_n + 0.2)


def test_read_sample_csv_with_header(tmp_path):
    p = tmp_path / "buy.csv"
    p.write_text("value\n0.5\n1.5\n")
    s = read_sample_csv(p, "buy")
    assert s.values == (0.5, 1.5)
    assert s.side == "buy"


def test_read_sample_csv_without_header(tmp_path):
    p = tmp_path / "sell.csv"
    p.write_text("0.25\n0.75\n1.25\n")
    s = read_sample_csv(p, "sell")
    assert s.values == (0.25, 0.75, 1.25)


def test_read_sample_csv_reports_bad_line(tmp_path):
    p = tmp_path / "buy.csv"
    p.write_text("0.5\nnot-a-number\n")
    with pytest.raises(ValueError, match="2"):
        read_sample_csv(p, "buy")


def test_read_sample_csv_line_ends_blank_lines_and_byte_order_mark(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_bytes(b"value\n0.5\n1.5\n-2.25\n")
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbfvalue\r\n\r\n0.5\r\n  \r\n1.5\r\n\r\n-2.25\r\n\r\n")
    assert read_sample_csv(marked, "buy") == read_sample_csv(plain, "buy")


def test_read_sample_csv_counts_blank_lines_in_line_numbers(tmp_path):
    p = tmp_path / "buy.csv"
    p.write_bytes(b"0.5\r\n\r\n\n1.5\n\nabc\n")
    with pytest.raises(ValueError, match=r"buy\.csv:6: cannot parse 'abc' as a number"):
        read_sample_csv(p, "buy")


def test_read_sample_csv_rejects_empty(tmp_path):
    p = tmp_path / "buy.csv"
    p.write_text("")
    with pytest.raises(ValueError):
        read_sample_csv(p, "buy")
