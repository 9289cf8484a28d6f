import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from robustmm import (
    DiscreteMeasure,
    SampleSet,
    alpha_range,
    beta_bounds,
    empirical_moments,
    min_cost_given_moments,
    moment_range_search,
    theorem_beta_envelope,
    w2_squared,
)
import robustmm.validation
from robustmm.oracle import _bracket, _merge, _price
from robustmm.validation import BRACKET_SLACK

from helpers import product_w2_squared, reference_bracket, reference_w2_squared, w2_distance


def lp_w2_squared(p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """Transport LP on the full coupling polytope."""
    xs = np.asarray(p.atoms)
    ys = np.asarray(q.atoms)
    wp = np.asarray(p.weights)
    wq = np.asarray(q.weights)
    cost = (xs[:, None] - ys[None, :]) ** 2
    npts, mpts = len(xs), len(ys)
    a_eq = []
    b_eq = []
    for i in range(npts):
        row = np.zeros(npts * mpts)
        row[i * mpts:(i + 1) * mpts] = 1.0
        a_eq.append(row)
        b_eq.append(wp[i])
    for j in range(mpts):
        row = np.zeros(npts * mpts)
        row[j::mpts] = 1.0
        a_eq.append(row)
        b_eq.append(wq[j])
    res = linprog(cost.ravel(), A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


def rand_measure(rng, max_atoms=5):
    k = int(rng.integers(1, max_atoms + 1))
    atoms = rng.uniform(-2.0, 2.0, size=k)
    w = rng.uniform(0.1, 1.0, size=k)
    return DiscreteMeasure(tuple(atoms), tuple(w / w.sum()))


def test_w2_two_atom_shift():
    p = DiscreteMeasure((0.0, 2.0), (0.5, 0.5))
    q = DiscreteMeasure((1.0, 3.0), (0.5, 0.5))
    assert w2_squared(p, q) == pytest.approx(1.0, rel=1e-14)


def test_w2_point_masses():
    p = DiscreteMeasure((0.0,), (1.0,))
    q = DiscreteMeasure((3.0,), (1.0,))
    assert w2_squared(p, q) == pytest.approx(9.0, rel=1e-14)
    assert w2_distance(p, q) == pytest.approx(3.0, rel=1e-14)


def test_w2_self_distance_zero():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = rand_measure(rng)
        assert w2_squared(p, p) <= 1e-15


def test_w2_symmetry_and_nonnegativity():
    rng = np.random.default_rng(4)
    for _ in range(50):
        p, q = rand_measure(rng), rand_measure(rng)
        d_pq = w2_squared(p, q)
        d_qp = w2_squared(q, p)
        assert d_pq >= 0.0
        assert d_pq == pytest.approx(d_qp, rel=1e-12, abs=1e-15)


def test_w2_triangle_inequality():
    rng = np.random.default_rng(6)
    for _ in range(50):
        p, q, r = rand_measure(rng), rand_measure(rng), rand_measure(rng)
        assert w2_distance(p, r) <= w2_distance(p, q) + w2_distance(q, r) + 1e-12


def test_w2_matches_transport_lp():
    # rand_measure atoms are unsorted and carry unequal weights
    rng = np.random.default_rng(7)
    for _ in range(25):
        p, q = rand_measure(rng), rand_measure(rng)
        ours = w2_squared(p, q)
        lp = lp_w2_squared(p, q)
        assert ours == pytest.approx(lp, rel=1e-8, abs=1e-10)


def test_w2_unequal_weight_partition():
    # 1/3-2/3 against 50-50 forces a split atom in the coupling
    p = DiscreteMeasure((0.0, 1.0), (1.0 / 3.0, 2.0 / 3.0))
    q = DiscreteMeasure((0.0, 1.0), (0.5, 0.5))
    assert w2_squared(p, q) == pytest.approx(lp_w2_squared(p, q), rel=1e-10)


def atomic_measures():
    """1 to 8 atoms in [-3, 3], weights from small counts (zeros and ties included)."""
    def build(k):
        return st.tuples(
            st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k),
            st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(lambda c: sum(c) > 0),
        ).map(lambda aw: DiscreteMeasure(tuple(aw[0]), tuple(c / sum(aw[1]) for c in aw[1])))
    return st.integers(1, 8).flatmap(build)


def test_product_w2_is_sum_of_marginals():
    rng = np.random.default_rng(8)
    for _ in range(20):
        p1, q1 = rand_measure(rng), rand_measure(rng)
        p2, q2 = rand_measure(rng), rand_measure(rng)
        total = product_w2_squared(p1, q1, p2, q2)
        assert total == pytest.approx(w2_squared(p1, q1) + w2_squared(p2, q2),
                                      rel=1e-12, abs=1e-15)


def test_measure_rejects_bad_weights():
    with pytest.raises(ValueError):
        DiscreteMeasure((0.0, 1.0), (0.7, 0.7))
    with pytest.raises(ValueError):
        DiscreteMeasure((0.0,), (-1.0,))


def test_max_mean_two_symmetric_atoms():
    # budget 0.25 lets both atoms translate by 0.5 exactly
    emp = DiscreteMeasure((-1.0, 1.0), (0.5, 0.5))
    best = moment_range_search(emp, 0.25, "max_mean")
    assert best == pytest.approx((0.5, 0.5), rel=1e-6, abs=1e-7)
    worst = moment_range_search(emp, 0.25, "min_mean")
    assert worst == pytest.approx((-0.5, -0.5), rel=1e-6, abs=1e-7)


def test_max_second_moment_matches_envelope_at_center():
    emp = DiscreteMeasure((-1.0, 1.0), (0.5, 0.5))
    s = empirical_moments(SampleSet("buy", (-1.0, 1.0)))
    got = moment_range_search(emp, 0.25, "max_second_moment", alpha=0.0)
    want = theorem_beta_envelope(s, 0.25, 0.0)
    assert want == pytest.approx(2.25, rel=1e-15)
    assert got == pytest.approx((want, want), rel=1e-4)


def test_search_at_zero_radius_returns_empirical():
    # both ends of every bracket are the sample moment
    emp = DiscreteMeasure((0.3, 0.9, 1.2), (0.25, 0.5, 0.25))
    for objective in ("max_mean", "min_mean"):
        mean = emp.mean()
        assert moment_range_search(emp, 0.0, objective) == pytest.approx((mean, mean), abs=1e-15)
    for objective in ("max_second_moment", "min_second_moment"):
        second = emp.second_moment()
        assert moment_range_search(emp, 0.0, objective, alpha=emp.mean()) == pytest.approx(
            (second, second), abs=1e-15)


def test_search_rejects_unreachable_alpha():
    emp = DiscreteMeasure((0.5, 1.0), (0.5, 0.5))
    with pytest.raises(ValueError, match="no feasible measure"):
        moment_range_search(emp, 0.01, "max_second_moment", alpha=2.0)


@pytest.mark.parametrize("objective", ["max_second_moment", "min_second_moment"])
@pytest.mark.parametrize("alpha", [math.nan, math.inf], ids=["nan", "inf"])
def test_search_rejects_non_finite_alpha(objective, alpha):
    emp = DiscreteMeasure.from_points([0.2, 0.8, 1.1])
    with pytest.raises(ValueError, match="finite mean constraint"):
        moment_range_search(emp, 0.1, objective, alpha=alpha)


def test_search_rejects_unknown_objective():
    emp = DiscreteMeasure((0.5, 1.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        moment_range_search(emp, 0.01, "median")


def test_mean_endpoints_against_closed_form():
    rng = np.random.default_rng(9)
    for _ in range(10):
        vals = tuple(rng.uniform(0.1, 2.0, size=int(rng.integers(2, 6))))
        emp = DiscreteMeasure.from_samples(SampleSet("buy", vals))
        s = empirical_moments(SampleSet("buy", vals))
        delta = float(rng.uniform(0.01, 0.3))
        hi, _ = moment_range_search(emp, delta, "max_mean")
        lo, _ = moment_range_search(emp, delta, "min_mean")
        root = np.sqrt(delta)
        assert hi == pytest.approx(s.alpha_n + root, rel=1e-5)
        assert lo == pytest.approx(s.alpha_n - root, rel=1e-5)


def test_envelope_against_oracle_random():
    rng = np.random.default_rng(10)
    for _ in range(8):
        vals = tuple(rng.uniform(0.1, 2.0, size=int(rng.integers(2, 6))))
        emp = DiscreteMeasure.from_samples(SampleSet("buy", vals))
        s = empirical_moments(SampleSet("buy", vals))
        delta = float(rng.uniform(0.02, 0.3))
        frac = float(rng.uniform(-0.8, 0.8))
        alpha = s.alpha_n + frac * np.sqrt(delta)
        got, _ = moment_range_search(emp, delta, "max_second_moment", alpha=float(alpha))
        want = theorem_beta_envelope(s, delta, float(alpha))
        assert got == pytest.approx(want, rel=1e-4)


def test_searches_at_the_six_atom_cap():
    # six samples, the most a brute-force search here could afford; the
    # bracket has no cap (test_bracket_has_no_atom_cap)
    vals = (0.31, 0.55, 0.62, 0.9, 1.17, 1.4)
    emp = DiscreteMeasure.from_samples(SampleSet("buy", vals))
    s = empirical_moments(SampleSet("buy", vals))
    delta = 0.04
    lo, hi = alpha_range(s, delta)
    assert moment_range_search(emp, delta, "max_mean") == pytest.approx((hi, hi), rel=1e-6)
    assert moment_range_search(emp, delta, "min_mean") == pytest.approx((lo, lo), rel=1e-6)
    alpha = s.alpha_n + 0.4 * math.sqrt(delta)
    beta = theorem_beta_envelope(s, delta, alpha)
    got = moment_range_search(emp, delta, "max_second_moment", alpha=alpha)
    assert got == pytest.approx((beta, beta), rel=1e-6)
    # the envelope is the budget boundary, so reaching it costs delta
    assert min_cost_given_moments(emp, alpha, beta) == pytest.approx(delta, rel=1e-6)


def test_min_cost_zero_at_empirical_moments():
    emp = DiscreteMeasure((0.2, 0.8, 1.1), (1 / 3, 1 / 3, 1 / 3))
    cost = min_cost_given_moments(emp, emp.mean(), emp.second_moment())
    assert cost <= 1e-10


def test_min_cost_within_budget_for_feasible_targets():
    # moments reachable inside the ball must cost at most the budget
    rng = np.random.default_rng(12)
    for _ in range(5):
        vals = tuple(rng.uniform(0.2, 1.5, size=4))
        emp = DiscreteMeasure.from_samples(SampleSet("sell", vals))
        s = empirical_moments(SampleSet("sell", vals))
        delta = float(rng.uniform(0.02, 0.2))
        alpha = s.alpha_n + 0.5 * np.sqrt(delta)
        beta = theorem_beta_envelope(s, delta, float(alpha))
        cost = min_cost_given_moments(emp, float(alpha), float(beta))
        assert cost <= delta * (1.0 + 1e-3) + 1e-9


def test_min_cost_at_a_narrower_target():
    # sigma = sigma_n / 2 at mean 1.0: exactly 0.5^2 + sigma_n^2 / 4, where
    # sigma_n^2 = 0.32 / 3; a search whose grid rows of equal atoms were
    # scaled onto the target returned a point mass costing 0.22003
    emp = DiscreteMeasure.from_points([0.1, 0.5, 0.9])
    cost = min_cost_given_moments(emp, 1.0, 1.0266666666666666)
    assert cost == pytest.approx(0.25 + 0.08 / 3.0, rel=1e-12)


def test_min_cost_equals_affine_push_cost():
    # the monotone affine push onto the target moments attains the minimum
    rng = np.random.default_rng(13)
    for _ in range(40):
        x = rng.uniform(-2.0, 2.0, size=int(rng.integers(2, 41)))
        emp = DiscreteMeasure.from_points(x)
        mean = emp.mean()
        sd_n = math.sqrt(float(np.mean((x - mean) ** 2)))
        alpha = mean + float(rng.normal(scale=0.5))
        sd = sd_n * float(rng.uniform(0.1, 2.0))
        push = DiscreteMeasure.from_points(alpha + (sd / sd_n) * (x - mean))
        cost = min_cost_given_moments(emp, alpha, alpha * alpha + sd * sd)
        assert cost == pytest.approx(w2_squared(emp, push), rel=1e-12)


def test_min_cost_is_a_lower_bound():
    # no measure with the target moments is closer than the closed form
    rng = np.random.default_rng(14)
    for _ in range(200):
        emp = rand_measure(rng, max_atoms=8)
        target = rand_measure(rng, max_atoms=8)
        cost = min_cost_given_moments(emp, target.mean(), target.second_moment())
        assert cost <= w2_squared(emp, target) * (1.0 + 1e-12) + 1e-15


@pytest.mark.parametrize("alpha, beta", [
    (math.nan, 1.0), (math.inf, 1.0), (0.5, math.nan), (0.5, math.inf),
], ids=["alpha-nan", "alpha-inf", "beta-nan", "beta-inf"])
def test_min_cost_rejects_non_finite_targets(alpha, beta):
    emp = DiscreteMeasure.from_points([0.2, 0.8, 1.1])
    with pytest.raises(ValueError, match="finite"):
        min_cost_given_moments(emp, alpha, beta)


def test_min_cost_rejects_second_moment_below_squared_mean():
    emp = DiscreteMeasure.from_points([0.2, 0.8, 1.1])
    with pytest.raises(ValueError, match="no feasible measure"):
        min_cost_given_moments(emp, 1.0, 0.9)


def test_from_points_rejects_empty():
    with pytest.raises(ValueError, match="at least one atom"):
        DiscreteMeasure.from_points([])


@pytest.mark.parametrize("delta", [math.nan, math.inf], ids=["nan", "inf"])
def test_search_rejects_non_finite_radius(delta):
    emp = DiscreteMeasure.from_points([0.2, 0.8, 1.1])
    with pytest.raises(ValueError, match="radius must be finite"):
        moment_range_search(emp, delta, "max_mean")


def test_search_rejects_overflowing_support():
    # a finite budget can still move an atom past where its squared gap is finite
    emp = DiscreteMeasure.from_points([0.0, 1.0])
    with pytest.raises(ValueError, match="leaves the float range"):
        moment_range_search(emp, 1e308, "max_mean")


def test_beta_lower_end_matches_oracle():
    # a point mass at 0 costs 0.05^2 * 2 / 3 of the budget 0.25, so the
    # smallest second moment at mean 0 is 0
    s = empirical_moments(SampleSet("buy", (-0.05, 0.0, 0.05)))
    assert beta_bounds(s, 0.25, 0.0)[0] == 0.0
    # the printed lower envelope plus beta_n where the sample is wider than
    # the budget allows to shrink, alpha^2 where it is not
    rng = np.random.default_rng(15)
    for _ in range(12):
        vals = tuple(rng.uniform(0.1, 2.0, size=int(rng.integers(2, 6))))
        emp = DiscreteMeasure.from_samples(SampleSet("buy", vals))
        s = empirical_moments(SampleSet("buy", vals))
        delta = float(rng.uniform(0.02, 0.5))
        alpha = s.alpha_n + float(rng.uniform(-0.8, 0.8)) * math.sqrt(delta)
        got, _ = moment_range_search(emp, delta, "min_second_moment", alpha=alpha)
        assert beta_bounds(s, delta, alpha)[0] == pytest.approx(got, rel=1e-8, abs=1e-10)


OBJECTIVES = ("max_mean", "min_mean", "max_second_moment", "min_second_moment")


def bracket(sample: DiscreteMeasure, delta: float, objective: str, alpha):
    """One row of the oracle's row path, with its witness as a measure."""
    atoms, weights, value, bound = _bracket(sample, delta, [objective], [alpha])[0]
    return DiscreteMeasure(tuple(atoms), tuple(weights)), value, bound


def moment_of(measure: DiscreteMeasure, objective: str) -> float:
    return measure.second_moment() if objective.endswith("second_moment") else measure.mean()


def pulled_into_ball(sample: DiscreteMeasure, far: DiscreteMeasure, delta: float, alpha):
    """far translated to mean alpha (when given), then mixed with the sample
    translated the same way, its mixture weight bisected until w2_squared
    prices the mixture within delta. The cost is convex in the weight and
    the translated sample costs (alpha - mean)^2 <= delta."""
    def at_alpha(m):
        shift = 0.0 if alpha is None else alpha - m.mean()
        return DiscreteMeasure(tuple(np.asarray(m.atoms) + shift), m.weights)

    near, far = at_alpha(sample), at_alpha(far)

    def mix(t):
        return DiscreteMeasure(near.atoms + far.atoms,
                               tuple((1.0 - t) * np.asarray(near.weights)) + tuple(t * np.asarray(far.weights)))

    lo, hi = 0.0, 1.0
    if w2_squared(mix(hi), sample) <= delta:
        return mix(hi)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if w2_squared(mix(mid), sample) <= delta:
            lo = mid
        else:
            hi = mid
    return mix(lo)


def assert_beyond(objective: str, inner: float, outer: float) -> None:
    """inner is not past outer in the objective's direction, up to the bracket slack."""
    slack = BRACKET_SLACK * (1.0 + abs(outer))
    if objective.startswith("max"):
        assert inner <= outer + slack
    else:
        assert inner >= outer - slack


@pytest.mark.parametrize("objective", OBJECTIVES)
@settings(max_examples=75, deadline=None)
@given(sample=atomic_measures(), far=atomic_measures(), delta=st.floats(1e-3, 1.0),
       frac=st.floats(-0.9, 0.9))
def test_no_measure_in_the_ball_beats_the_bound(objective, sample, far, delta, frac):
    # the third route: random 1-8 atom measures pulled into the ball never
    # pass the dual bound, and the witness is itself inside the ball
    alpha = sample.mean() + frac * math.sqrt(delta) if objective.endswith("second_moment") else None
    witness, value, bound = bracket(sample, delta, objective, alpha)
    assert w2_squared(witness, sample) <= delta
    assert moment_of(witness, objective) == pytest.approx(value, rel=1e-12, abs=1e-12)
    assert_beyond(objective, value, bound)
    inside = pulled_into_ball(sample, far, delta, alpha)
    assert w2_squared(inside, sample) <= delta
    assert_beyond(objective, moment_of(inside, objective), bound)


@pytest.mark.parametrize("points", [[0.7], [0.7, 0.7, 0.7]], ids=["one-atom", "all-equal"])
def test_point_mass_meets_its_bound(points):
    # sd 0: the largest second moment splits the atom into halves at
    # alpha +- r, r^2 = delta - (alpha - 0.7)^2, and reaches the bound
    emp = DiscreteMeasure.from_points(points)
    delta, alpha = 0.04, 0.75
    want = {"max_mean": 0.9, "min_mean": 0.5,
            "max_second_moment": alpha**2 + delta - 0.05**2, "min_second_moment": alpha**2}
    for objective, moment in want.items():
        a = alpha if objective.endswith("second_moment") else None
        witness, value, bound = bracket(emp, delta, objective, a)
        assert w2_squared(witness, emp) <= delta
        assert (value, bound) == pytest.approx((moment, moment), rel=1e-12)
    witness, _, _ = bracket(emp, delta, "max_second_moment", alpha)
    assert len(witness.atoms) == 2 * len(points)


@pytest.mark.parametrize("delta", [1e-300, 1e-20, 1e-6, 1e6, 1e100])
def test_bracket_at_extreme_radii(delta):
    # tiny and huge finite radii give finite, ordered brackets; a numpy
    # warning on the way would fail the test
    emp = DiscreteMeasure.from_points([0.3, 0.9, 1.2])
    s = empirical_moments(SampleSet("buy", (0.3, 0.9, 1.2)))
    alpha = s.alpha_n + 0.5 * math.sqrt(delta)
    for objective in OBJECTIVES:
        a = alpha if objective.endswith("second_moment") else None
        witness, value, bound = bracket(emp, delta, objective, a)
        assert math.isfinite(value) and math.isfinite(bound)
        assert_beyond(objective, value, bound)
        # at 1e-300 alpha rounds to an ulp off the sample mean, outside the
        # ball; that close it counts as on the edge, where the witness is
        # the sample translated to the edge
        assert w2_squared(witness, emp) <= delta


def test_bracket_has_no_atom_cap():
    # 40 samples: every closed form inside a bracket of width at rounding level
    vals = tuple(np.random.default_rng(17).uniform(0.1, 2.0, size=40))
    emp = DiscreteMeasure.from_samples(SampleSet("sell", vals))
    s = empirical_moments(SampleSet("sell", vals))
    delta = 0.09
    alpha = s.alpha_n - 0.5 * math.sqrt(delta)
    lo, hi = beta_bounds(s, delta, alpha)
    want = {"max_mean": s.alpha_n + 0.3, "min_mean": s.alpha_n - 0.3,
            "max_second_moment": hi, "min_second_moment": lo}
    for objective, moment in want.items():
        a = alpha if objective.endswith("second_moment") else None
        assert moment_range_search(emp, delta, objective, a) == pytest.approx(
            (moment, moment), rel=1e-14)


LAYOUTS = ("uniform", "weighted", "zero-weights", "ties", "point-mass")


def layout_measure(n: int, layout: str) -> DiscreteMeasure:
    """n atoms in [0.1, 2]: equal or unequal weights, a third of them zero,
    atoms rounded to one decimal (tied atoms of unequal weights), or one point."""
    rng = np.random.default_rng([n, LAYOUTS.index(layout)])
    x = rng.uniform(0.1, 2.0, size=n)
    w = np.full(n, 1.0 / n) if layout in ("uniform", "point-mass") else rng.uniform(0.1, 1.0, size=n)
    if layout == "zero-weights" and n > 1:
        w[rng.choice(n, size=max(1, n // 3), replace=False)] = 0.0
    if layout == "ties":
        x = np.round(x, 1)
    if layout == "point-mass":
        x[:] = 0.7
    return DiscreteMeasure(tuple(x), tuple(w / w.sum()))


def edge_witness(sample: DiscreteMeasure, delta: float, alpha):
    """For alpha within the oracle's slack inside the ball's edge, the
    witness there: the sample translated to alpha, as the oracle builds it
    (its atoms of positive weight in order, centered twice, moved by a).
    None elsewhere, where the witness is pulled."""
    order = np.argsort(sample.atoms, kind="stable")
    x, w = np.asarray(sample.atoms)[order], np.asarray(sample.weights)[order]
    x, w = x[w > 0], w[w > 0]
    center = float(np.dot(w, x))
    center += float(np.dot(w, x - center))
    a = min(max(alpha - center, -math.sqrt(delta)), math.sqrt(delta))
    if not (delta - a * a > 0.0 and abs(a) >= math.sqrt(delta) - 1e-12 * (1.0 + abs(center))):
        return None
    d = x - center
    return x + ((d + a) - d)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n", [1, 2, 5, 37, 2000])
def test_rows_equal_the_scalar_bracket_bit_for_bit(n, layout):
    # every objective, and second moments at means from one edge of the
    # ball to the other, in one row call; each row alone gives the same row
    sample = layout_measure(n, layout)
    for delta in (0.0, 1e-300, 0.04, 1e100):
        objectives, alphas = [], []
        for objective in OBJECTIVES:
            fracs = (-1.0, -0.8, -0.3, 0.0, 0.5, 1.0) if objective.endswith("second_moment") else (None,)
            for t in fracs:
                objectives.append(objective)
                alphas.append(None if t is None else sample.mean() + t * math.sqrt(delta))
        rows = _bracket(sample, delta, objectives, alphas)
        for row, objective, alpha in zip(rows, objectives, alphas):
            atoms, weights, value, bound = row
            witness, ref_value, ref_bound = reference_bracket(sample, delta, objective, alpha)
            assert bound == ref_bound, (delta, objective, alpha)
            translated = None if alpha is None else edge_witness(sample, delta, alpha)
            if translated is not None:
                assert atoms.tobytes() == translated.tobytes()
                assert_beyond(objective, value, bound)
            else:
                assert (value, tuple(atoms), tuple(weights)) == (ref_value, witness.atoms, witness.weights), (
                    delta, objective, alpha)
            alone = _bracket(sample, delta, [objective], [alpha])[0]
            assert (alone[2:], alone[0].tobytes(), alone[1].tobytes()) == (
                row[2:], row[0].tobytes(), row[1].tobytes())


@pytest.mark.parametrize("weighted", [False, True], ids=["equal-weights", "unequal-weights"])
@pytest.mark.parametrize("n", [1, 2, 5, 37, 2000])
def test_pricing_kernel_equals_w2_squared(n, weighted):
    # atoms on a 0.1 grid, so rows tie atoms with the sample and with
    # themselves, and rows sort their atoms in different orders
    rng = np.random.default_rng(n)
    for _ in range(5):
        x = np.round(rng.uniform(0.0, 2.0, size=n), 1)
        w = rng.uniform(0.1, 1.0, size=n) if weighted else np.ones(n)
        w /= w.sum()
        sample = DiscreteMeasure(tuple(x), tuple(w))
        rows = np.vstack([x, np.round(x + rng.normal(scale=0.3, size=(4, n)), 1)])
        grid = _merge(np.cumsum(w), sample)
        # rows in the sample's order, and rows in their own orders
        for batch in (np.sort(rows, axis=-1), rows):
            for row, cost in zip(batch, _price(batch, w, sample, grid)):
                measure = DiscreteMeasure(tuple(row), tuple(w))
                assert cost == w2_squared(measure, sample) == reference_w2_squared(measure, sample)
        assert _price(rows[:1], w, sample, grid)[0] == 0.0


def test_bracket_one_rounding_from_the_edge_is_ordered():
    # alpha = mean + sqrt(delta) lands a rounding inside the edge, where a
    # pulled witness passed the dual bound (largest second moment
    # 1.1400000034 against 1.1400000025, smallest 1.1399999966 against
    # 1.1399999983): the sample translated to alpha stays inside it
    emp = DiscreteMeasure.from_points([0.3, 0.9, 1.2])
    s = empirical_moments(SampleSet("buy", (0.3, 0.9, 1.2)))
    for alpha in (emp.mean() + 0.2, emp.mean() + 0.2 * (1.0 - 1e-12)):
        lo, hi = beta_bounds(s, 0.04, alpha)
        for objective, closed in (("max_second_moment", hi), ("min_second_moment", lo)):
            witness, value, bound = bracket(emp, 0.04, objective, alpha)
            assert (value <= bound) if objective.startswith("max") else (value >= bound)
            assert value == pytest.approx(alpha * alpha + s.variance, rel=1e-15)
            # the dual bound still holds: at 1e-12 inside the edge the
            # closed form lies 1.9e-7 past the translated sample's moment
            assert min(value, bound) - BRACKET_SLACK <= closed <= max(value, bound) + BRACKET_SLACK
            assert witness.mean() == pytest.approx(alpha, rel=1e-15)


def test_validation_brackets_each_side_once_per_budget(monkeypatch):
    # eight rows (two mean ends, five upper envelopes, the raw lower) per
    # side and budget in one search, through the door the benchmark counts
    calls = []
    search = robustmm.validation.moment_range_search

    def counted(measure, delta, objectives, alphas):
        calls.append((measure, len(objectives)))
        return search(measure, delta, objectives, alphas)

    monkeypatch.setattr(robustmm.validation, "moment_range_search", counted)
    buy = SampleSet("buy", (0.4, 1.1, 0.7, 1.6, 0.2))
    sell = SampleSet("sell", (0.5, 0.9, 1.3, 0.1, 0.8))
    robustmm.validation.run_validation(buy, sell, (0.01, 0.04, 0.25), 1e-4)
    assert [rows for _, rows in calls] == [8] * 6
    # one measure per side serves all three budgets
    assert len({id(measure) for measure, _ in calls}) == 2
