"""The model's exact invariances, used as oracles that need no second
implementation.

- Side swap: (S, Q, f+-, h+-, buy and sell samples) -> (-S, -Q, f-+, h-+,
  sell and buy samples) leaves the reward unchanged with eps+ <-> eps-, so
  the two sides' moments trade places and the density is transposed.
- Units of order flow: samples x s, h / s and budget x s^2 leave every mean
  fill, the policy and the objective unchanged; means scale by s, second
  moments by s^2.
- Replication: repeating each sample k times leaves the empirical law, so
  everything but the radius profile (which falls like 1/n), unchanged.

Each holds up to the rounding of the summaries; the bound is 1e-12 of each
quantity's own scale.
"""
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from robustmm import (
    FunctionSpec,
    MetaDistribution,
    SampleSet,
    build_policy,
    empirical_moments,
    expected_reward,
    read_sample_csv,
    select_radius,
    simulate_batch,
    solve_inner,
)
from robustmm.config import parse_config
from robustmm.validation import run_validation

from helpers import exponent_table, rand_instance, rand_samples
from robustmm.policy import _GridEvaluator

TOL = 1e-12
UNIT = 3.7
COPIES = 3


def _fixture_problem():
    cfg = parse_config(Path(__file__).parent / "fixtures" / "solve.cfg")
    model, dom = cfg.require_model()
    samples = tuple(read_sample_csv(p, side) for p, side in zip(cfg.require_samples(), ("buy", "sell")))
    return model, dom, samples, 0.02


def _random_problem(seed, cert):
    """rand_instance's problem with the samples it summarized, drawn again
    from the same stream."""
    model, dom, summaries, delta = rand_instance(np.random.default_rng(seed), cert=cert)
    rng = np.random.default_rng(seed)
    samples = (rand_samples(rng, "buy"), rand_samples(rng, "sell"))
    assert tuple(empirical_moments(s) for s in samples) == summaries
    return model, dom, samples, delta


def _problems():
    named = [("fixture", _fixture_problem())]
    named += [(f"cert-{seed}", _random_problem(seed, True)) for seed in range(4)]
    named += [(f"uncert-{seed}", _random_problem(seed, False)) for seed in range(4, 6)]
    return [pytest.param(problem, id=name) for name, problem in named]


def _over_unit(spec: FunctionSpec, s: float) -> FunctionSpec:
    """The curve divided by s."""
    if spec.kind == "exp_decay":
        return FunctionSpec(spec.kind, (spec.params[0] / s, spec.params[1]))
    return FunctionSpec(spec.kind, tuple(p / s for p in spec.params))


def _swap_model(model):
    return replace(model, S=-model.S, Q=-model.Q, f_plus=model.f_minus, f_minus=model.f_plus,
                   h_plus=model.h_minus, h_minus=model.h_plus)


def _unit_model(model):
    return replace(model, h_plus=_over_unit(model.h_plus, UNIT), h_minus=_over_unit(model.h_minus, UNIT))


def _unit_samples(samples):
    return tuple(SampleSet(x.side, tuple(UNIT * v for v in x.values)) for x in samples)


# per transform: the new model, the new samples, the budget's factor, the map of
# the original's (a+, a-) and (b+, b-) onto the new problem's, and of its density
_TRANSFORMS = {
    "swap": (_swap_model, lambda xs: (SampleSet("buy", xs[1].values), SampleSet("sell", xs[0].values)), 1.0,
             lambda a, b: (a[::-1], b[::-1]), np.transpose),
    "unit": (_unit_model, _unit_samples, UNIT * UNIT, lambda a, b: (UNIT * a, UNIT * UNIT * b), lambda d: d),
    "replicate": (lambda model: model, lambda xs: tuple(SampleSet(x.side, x.values * COPIES) for x in xs), 1.0,
                  lambda a, b: (a, b), lambda d: d),
}


def _moments(sol):
    return (np.array([sol.alpha_star_plus, sol.alpha_star_minus]),
            np.array([sol.beta_star_plus, sol.beta_star_minus]))


def _scales(samples, delta):
    """Per side, the size of a mean in the ball and of a second moment."""
    size = np.array([abs(s.alpha_n) + math.sqrt(s.variance) + math.sqrt(delta)
                     for s in map(empirical_moments, samples)])
    return size, size * size


def _reward_scale(model, grid, a, b):
    """gamma * sum m |exponent|: the size of the terms expected_reward sums."""
    e = exponent_table(_GridEvaluator(model, grid.domain), *a, *b)
    return model.gamma * float(np.sum(grid.cell_masses().ravel() * np.abs(e)))


@pytest.mark.parametrize("transform", list(_TRANSFORMS))
@pytest.mark.parametrize("problem", _problems())
def test_solve_policy_and_reward_are_invariant(problem, transform):
    model, dom, samples, delta = problem
    model_map, samples_map, budget, moments_map, density_map = _TRANSFORMS[transform]
    model_t, samples_t, delta_t = model_map(model), samples_map(samples), budget * delta
    summaries = tuple(map(empirical_moments, samples))
    sol = solve_inner(model, dom, summaries, delta)
    sol_t = solve_inner(model_t, dom, tuple(map(empirical_moments, samples_t)), delta_t)

    assert sol_t.objective == pytest.approx(sol.objective, rel=TOL)
    assert (sol_t.iterations, sol_t.concave_certificate) == (sol.iterations, sol.concave_certificate)
    lz = math.log(-sol.objective / model.gamma)
    assert abs(sol_t.optimality_gap - sol.optimality_gap) <= TOL * (1.0 + abs(lz))
    (a, b), (a_t, b_t) = moments_map(*_moments(sol)), _moments(sol_t)
    size_a, size_b = moments_map(*_scales(samples, delta))
    assert np.all(np.abs(a_t - a) <= TOL * size_a) and np.all(np.abs(b_t - b) <= TOL * size_b)

    grid, grid_t = build_policy(model, dom, sol), build_policy(model_t, dom, sol_t)
    want = density_map(grid.density)
    assert np.max(np.abs(grid_t.density - want)) <= TOL * np.max(want)

    # each policy's reward at the empirical moments and at a shifted point of the ball
    r = math.sqrt(delta)
    for shift in (np.zeros(2), np.array([0.6 * r, -0.3 * r])):
        x_a = np.array([s.alpha_n for s in summaries]) + shift
        x_b = x_a * x_a + np.array([s.variance for s in summaries])
        got = expected_reward(model_t, grid_t, *np.concatenate(moments_map(x_a, x_b)))
        want = expected_reward(model, grid, *x_a, *x_b)
        assert abs(got - want) <= TOL * _reward_scale(model, grid, x_a, x_b)


@pytest.mark.parametrize("transform", list(_TRANSFORMS))
def test_validation_envelope_rows_are_invariant(transform):
    # the profile rows are left out: their targets are fixed, not carried by
    # the transform, and the profile falls like 1/n under replication
    _, _, samples, _ = _fixture_problem()
    _, samples_map, budget, moments_map, _ = _TRANSFORMS[transform]
    deltas = (0.01, 0.04, 0.25)
    rows = run_validation(*samples, deltas, 1e-4)
    rows_t = run_validation(*samples_map(samples), tuple(budget * d for d in deltas), 1e-4)

    def envelope(rows):
        # per budget, each side's eight rows in run order: 2 mean ends, 5 upper envelopes, the raw lower
        env = [r for r in rows if ",delta=" in r.check]
        assert len(env) == 2 * 8 * len(deltas)
        return np.array([[r.analytic, r.oracle, r.oracle_bound if r.oracle_bound is not None else r.oracle]
                         for r in env]).reshape(len(deltas), 2, 8, 3), [r.passed for r in env]

    (vals, passed), (vals_t, passed_t) = envelope(rows), envelope(rows_t)
    assert passed_t == passed
    for k, delta in enumerate(deltas):
        size_a, size_b = _scales(samples, delta)
        means, seconds = moments_map(vals[k, :, :2], vals[k, :, 2:])
        size_a, size_b = moments_map(size_a, size_b)
        assert np.all(np.abs(vals_t[k, :, :2] - means) <= TOL * size_a[:, None, None])
        assert np.all(np.abs(vals_t[k, :, 2:] - seconds) <= TOL * size_b[:, None, None])


def test_radius_scales_with_the_unit():
    rng = np.random.default_rng(17)
    samples = (SampleSet("buy", tuple(rng.gamma(6.0, 1.0 / 6.0, 300))),
               SampleSet("sell", tuple(rng.gamma(8.0, 0.9 / 8.0, 300))))
    sel, sel_t = select_radius(*samples, 0.1, 300, 5), select_radius(*_unit_samples(samples), 0.1, 300, 5)
    assert sel_t.delta_hat == pytest.approx(UNIT * sel.delta_hat, rel=TOL)
    assert sel_t.profile_quantile == pytest.approx(UNIT * UNIT * sel.profile_quantile, rel=TOL)
    assert sel_t.gram_bound == pytest.approx(sel.gram_bound, rel=TOL)


def test_episodes_are_unchanged_by_the_unit():
    # the same seed draws the same cells and atoms; a rounding of the density
    # can move a draw across a CDF edge, so a few episodes may differ
    model, dom, samples, delta = _random_problem(1, True)
    objectives = []
    for m, xs, d in ((model, samples, delta), (_unit_model(model), _unit_samples(samples), UNIT * UNIT * delta)):
        grid = build_policy(m, dom, solve_inner(m, dom, tuple(map(empirical_moments, xs)), d))
        laws = tuple(MetaDistribution(x.values) for x in xs)
        objectives.append(simulate_batch(grid, m, laws, 20_000, np.random.default_rng(3)))
    obj, obj_t = objectives
    assert np.mean(np.abs(obj_t - obj) <= TOL * (1.0 + np.abs(obj))) >= 0.999
