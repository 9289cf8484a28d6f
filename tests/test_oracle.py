import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from robustmm import (
    DiscreteMeasure,
    SampleSet,
    SupportSpec,
    alpha_range,
    empirical_moments,
    min_cost_given_moments,
    moment_range_search,
    product_w2_squared,
    theorem_beta_envelope,
    w2_distance,
    w2_squared,
)
from robustmm.oracle import _BallSearch, _simplex_grid


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


def kernel_w2_squared(p: DiscreteMeasure, q: DiscreteMeasure) -> float:
    """Squared W2 through the search kernel: p as one row, priced against q."""
    return float(_BallSearch(q, 0.0).cost_batch(np.array([p.atoms]), np.array(p.weights))[0])


def test_w2_matches_transport_lp():
    # rand_measure atoms are unsorted and carry unequal weights
    rng = np.random.default_rng(7)
    for _ in range(25):
        p, q = rand_measure(rng), rand_measure(rng)
        ours = w2_squared(p, q)
        lp = lp_w2_squared(p, q)
        assert ours == pytest.approx(lp, rel=1e-8, abs=1e-10)
        kernel = kernel_w2_squared(p, q)
        assert abs(kernel - ours) <= 1e-12
        assert kernel == pytest.approx(lp, rel=1e-8, abs=1e-10)


def test_w2_unequal_weight_partition():
    # 1/3-2/3 against 50-50 forces a split atom in the coupling
    p = DiscreteMeasure((0.0, 1.0), (1.0 / 3.0, 2.0 / 3.0))
    q = DiscreteMeasure((0.0, 1.0), (0.5, 0.5))
    assert w2_squared(p, q) == pytest.approx(lp_w2_squared(p, q), rel=1e-10)
    for a, b in ((p, q), (q, p)):
        assert abs(kernel_w2_squared(a, b) - w2_squared(a, b)) <= 1e-12


def test_cost_batch_rows_match_w2():
    # several rows per call: unsorted rows under one shared weight vector,
    # and per-row simplex weights that include zeros
    rng = np.random.default_rng(11)
    emp = rand_measure(rng, max_atoms=6)
    search = _BallSearch(emp, 0.0)
    shared = np.array([0.1, 0.4, 0.2, 0.3])
    rows = rng.uniform(-2.0, 2.0, size=(7, 4))
    weights = _simplex_grid(4, 4)
    per_row = rng.uniform(-2.0, 2.0, size=(len(weights), 4))
    for rs, ws in ((rows, shared), (per_row, weights)):
        costs = search.cost_batch(rs, ws)
        assert costs.shape == (len(rs),)
        for k, (r, c) in enumerate(zip(rs, costs)):
            cand = DiscreteMeasure(tuple(r), tuple(np.broadcast_to(ws, rs.shape)[k]))
            assert abs(c - w2_squared(cand, emp)) <= 1e-12
            if k % 7 == 0:
                assert c == pytest.approx(lp_w2_squared(cand, emp), rel=1e-8, abs=1e-10)


def atomic_measures():
    """1 to 6 atoms in [-3, 3], weights from small counts (zeros and ties included)."""
    def build(k):
        return st.tuples(
            st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k),
            st.lists(st.integers(0, 4), min_size=k, max_size=k).filter(lambda c: sum(c) > 0),
        ).map(lambda aw: DiscreteMeasure(tuple(aw[0]), tuple(c / sum(aw[1]) for c in aw[1])))
    return st.integers(1, 6).flatmap(build)


@settings(max_examples=200, deadline=None)
@given(p=atomic_measures(), q=atomic_measures(), data=st.data())
def test_cost_batch_properties(p, q, data):
    perm = data.draw(st.permutations(range(len(p.atoms))))
    x = np.array(p.atoms)
    w = np.array(p.weights)
    cost, permuted = _BallSearch(q, 0.0).cost_batch(np.stack([x, x[perm]]), np.stack([w, w[perm]]))
    assert cost >= -1e-14
    assert permuted == pytest.approx(cost, abs=1e-14)
    assert abs(cost - w2_squared(p, q)) <= 1e-12


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
    assert best == pytest.approx(0.5, rel=1e-6, abs=1e-7)
    worst = moment_range_search(emp, 0.25, "min_mean")
    assert worst == pytest.approx(-0.5, rel=1e-6, abs=1e-7)


def test_max_second_moment_matches_envelope_at_center():
    emp = DiscreteMeasure((-1.0, 1.0), (0.5, 0.5))
    s = empirical_moments(SampleSet("buy", (-1.0, 1.0)))
    got = moment_range_search(emp, 0.25, "max_second_moment", alpha=0.0)
    want = theorem_beta_envelope(s, 0.25, 0.0)
    assert want == pytest.approx(2.25, rel=1e-15)
    assert got == pytest.approx(want, rel=1e-4)


def test_search_at_zero_radius_returns_empirical():
    emp = DiscreteMeasure((0.3, 0.9, 1.2), (0.25, 0.5, 0.25))
    assert moment_range_search(emp, 0.0, "max_mean") == pytest.approx(emp.mean(), abs=1e-15)
    assert moment_range_search(emp, 0.0, "min_second_moment",
                               alpha=emp.mean()) == pytest.approx(
        emp.second_moment(), abs=1e-15)


def test_search_rejects_unreachable_alpha():
    emp = DiscreteMeasure((0.5, 1.0), (0.5, 0.5))
    with pytest.raises(ValueError, match="no feasible measure"):
        moment_range_search(emp, 0.01, "max_second_moment", alpha=2.0)


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
        hi = moment_range_search(emp, delta, "max_mean")
        lo = moment_range_search(emp, delta, "min_mean")
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
        got = moment_range_search(emp, delta, "max_second_moment", alpha=float(alpha))
        want = theorem_beta_envelope(s, delta, float(alpha))
        assert got == pytest.approx(want, rel=1e-4)


def test_searches_at_the_six_atom_cap():
    # six samples give six-atom candidates, the largest the searches take
    vals = (0.31, 0.55, 0.62, 0.9, 1.17, 1.4)
    emp = DiscreteMeasure.from_samples(SampleSet("buy", vals))
    s = empirical_moments(SampleSet("buy", vals))
    delta = 0.04
    lo, hi = alpha_range(s, delta)
    assert moment_range_search(emp, delta, "max_mean") == pytest.approx(hi, rel=1e-6)
    assert moment_range_search(emp, delta, "min_mean") == pytest.approx(lo, rel=1e-6)
    alpha = s.alpha_n + 0.4 * math.sqrt(delta)
    beta = theorem_beta_envelope(s, delta, alpha)
    got = moment_range_search(emp, delta, "max_second_moment", alpha=alpha)
    assert got == pytest.approx(beta, rel=1e-6)
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


def test_support_spec_validation():
    with pytest.raises(ValueError):
        SupportSpec(lo=1.0, hi=0.0, m=3)
    with pytest.raises(ValueError):
        SupportSpec(lo=0.0, hi=1.0, m=9)
