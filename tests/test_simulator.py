import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from robustmm import (
    MetaDistribution,
    SampleSet,
    ShiftSpec,
    SpreadDomain,
    SpreadModel,
    build_policy,
    constant,
    empirical_moments,
    exp_decay,
    expected_reward,
    shift_experiment,
    simulate_batch,
    solve_inner,
)

import robustmm.simulator as simulator
from helpers import (FixedLaw, GaussianLaw, exponent_table, one_pass_batch, one_shot_batch, policy_with_masses,
                     zero_mass_cases)
from robustmm.policy import _GridEvaluator


def fixture_samples():
    buy = SampleSet("buy", (0.4, 1.1, 0.7, 1.6, 0.2, 0.9, 0.6, 1.2))
    sell = SampleSet("sell", (0.5, 0.9, 1.3, 0.1, 0.8, 1.0, 0.4, 1.1))
    return buy, sell


def fixture_model():
    return SpreadModel(S=5.0, Q=1.0, eta=0.8, gamma=2.0,
                       f_plus=constant(0.2), f_minus=constant(0.2),
                       h_plus=exp_decay(1.0, 1.2), h_minus=exp_decay(1.0, 1.2))


def fixture_policy(delta=0.02):
    return fixture_policy_on(SpreadDomain(eps_max=0.8, grid_n=33), delta)


def fixture_policy_on(dom, delta=0.02):
    buy, sell = fixture_samples()
    model = fixture_model()
    summaries = (empirical_moments(buy), empirical_moments(sell))
    sol = solve_inner(model, dom, summaries, delta)
    return model, dom, sol, build_policy(model, dom, sol)


def test_shift_spec_apply():
    buy, sell = fixture_samples()
    sp, sm = empirical_moments(buy), empirical_moments(sell)
    plus, minus = ShiftSpec(mean_shift_plus=-0.2, sd_scale_plus=2.0,
                            mean_shift_minus=0.1, sd_scale_minus=0.5).apply((buy, sell))
    xp, xm = np.asarray(plus.atoms), np.asarray(minus.atoms)
    assert float(np.mean(xp)) == pytest.approx(sp.alpha_n - 0.2, rel=1e-12)
    assert float(np.var(xp)) == pytest.approx(4.0 * sp.variance, rel=1e-12)
    assert float(np.mean(xm)) == pytest.approx(sm.alpha_n + 0.1, rel=1e-12)
    assert float(np.var(xm)) == pytest.approx(0.25 * sm.variance, rel=1e-12)
    # no shift replays the samples themselves
    assert ShiftSpec().apply((buy, sell)) == (MetaDistribution(buy.values),
                                              MetaDistribution(sell.values))


def replayed_batch(policy, model, metas, episodes, seed):
    """The reference replay of simulate_batch's stream, which keeps the
    spreads and fills, with its objective checked bit for bit against the
    batch's."""
    objective = simulate_batch(policy, model, metas, episodes, np.random.default_rng(seed))
    replay = one_shot_batch(policy, model, metas, episodes, np.random.default_rng(seed))
    assert np.array_equal(objective, replay["objective"])
    return replay


def test_order_flow_linear_in_innovation():
    # single-atom laws fix the innovations at 0.7 and 0.3
    model, dom, sol, pol = fixture_policy()
    metas = (MetaDistribution((0.7,)), MetaDistribution((0.3,)))
    batch = replayed_batch(pol, model, metas, 50, 0)
    hp = model.h_plus(batch["eps_plus"])
    hm = model.h_minus(batch["eps_minus"])
    np.testing.assert_allclose(batch["fill_plus"], hp * 0.7 + 0.2, rtol=1e-14)
    np.testing.assert_allclose(batch["fill_minus"], hm * 0.3 + 0.2, rtol=1e-14)


def test_accounting_identity_every_episode():
    model, dom, sol, pol = fixture_policy()
    metas = (GaussianLaw(0.8, 0.4), GaussianLaw(0.7, 0.5))
    batch = replayed_batch(pol, model, metas, 20000, 17)
    cash = ((model.S + batch["eps_plus"]) * batch["fill_plus"]
            - (model.S - batch["eps_minus"]) * batch["fill_minus"])
    inv = model.Q + batch["fill_plus"] - batch["fill_minus"]
    assert np.array_equal(batch["objective"], cash - model.eta * inv * inv)


def test_two_atom_laws_book_gamma_times_exponent(monkeypatch):
    # the Gibbs exponent is the expected reward: over the four equally likely
    # innovation pairs of two-atom laws, the mean booked objective at each node
    # is gamma times the exponent at the laws' (mean, second moment), exactly
    model, _, _, policy = fixture_policy()
    dom = SpreadDomain(eps_max=0.8, grid_n=17)
    nodes = dom.grid_n ** 2
    ep, em = (np.tile(v.ravel(), 4) for v in np.meshgrid(dom.axis_nodes, dom.axis_nodes, indexing="ij"))
    sizes = []

    def node_sampler(grid, rng, size):
        sizes.append(size)
        return ep, em

    monkeypatch.setattr(simulator, "sample_policy", node_sampler)
    (x1, x2), (y1, y2) = (0.3, 1.4), (0.6, 1.1)
    laws = (FixedLaw(np.repeat([x1, x1, x2, x2], nodes)), FixedLaw(np.repeat([y1, y2, y1, y2], nodes)))
    out = simulate_batch(policy, model, laws, 4 * nodes, np.random.default_rng(0))
    for law in laws:
        law.assert_consumed()
    # the batch is one block, so every episode books the node spreads
    assert sizes == [4 * nodes]
    booked = out.reshape(4, nodes).mean(axis=0)
    want = model.gamma * exponent_table(
        _GridEvaluator(model, dom), (x1 + x2) / 2, (y1 + y2) / 2, (x1 * x1 + x2 * x2) / 2, (y1 * y1 + y2 * y2) / 2)
    np.testing.assert_allclose(booked, want, rtol=1e-12, atol=0.0)


# episode counts on both sides of the simulator's block edges
BLOCK = simulator._EPISODE_BLOCK
BLOCK_EDGE_EPISODES = (1, 2000, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5)
# draw sizes of a blocked draw of LAW_DRAWS values: ragged, a full block, then the rest
LAW_DRAWS = 100_003
LAW_BLOCKS = (1, 777, BLOCK, LAW_DRAWS - 1 - 777 - BLOCK)


@pytest.mark.parametrize("law", [MetaDistribution(fixture_samples()[0].values[:7]),
                                 MetaDistribution(tuple(np.linspace(-1.0, 1.0, 200))),
                                 GaussianLaw(0.8, 0.4)], ids=["7-atoms", "200-atoms", "gaussian"])
def test_law_draws_the_same_values_in_blocks(law):
    # a law drawn a block at a time gives one call's values and leaves the
    # generator where one call does
    whole_rng, block_rng = np.random.default_rng(8), np.random.default_rng(8)
    whole = law.draw(whole_rng, LAW_DRAWS)
    blocked = [law.draw(block_rng, size) for size in LAW_BLOCKS]
    assert [b.size for b in blocked] == list(LAW_BLOCKS)
    assert np.array_equal(np.concatenate(blocked), whole)
    assert block_rng.bit_generator.state == whole_rng.bit_generator.state


def test_fixed_law_serves_blocks_from_a_cursor():
    values = np.arange(LAW_DRAWS) * 0.5
    law = FixedLaw(values)
    blocked = [law.draw(None, size) for size in LAW_BLOCKS]
    assert np.array_equal(np.concatenate(blocked), values)
    law.assert_consumed()
    # each draw is a fresh array: writing over it leaves the values alone
    blocked[0] += 1.0
    assert values[0] == 0.0
    with pytest.raises(AssertionError):
        law.draw(None, 1)
    with pytest.raises(AssertionError):
        FixedLaw(values).assert_consumed()


@pytest.mark.parametrize("episodes", BLOCK_EDGE_EPISODES)
@pytest.mark.parametrize("name", ["fixture", *zero_mass_cases()])
def test_blocked_batch_equals_one_shot_batch(name, episodes):
    # each block's spreads, plus and minus innovations are drawn and booked
    # before the next block draws, to the last bit of every objective
    model = fixture_model()
    policy = fixture_policy()[3] if name == "fixture" else policy_with_masses(zero_mass_cases()[name])
    buy, sell = fixture_samples()
    for metas in (ShiftSpec(mean_shift_plus=-0.2, sd_scale_minus=1.5).apply((buy, sell)),
                  (GaussianLaw(0.8, 0.4), GaussianLaw(0.7, 0.5))):
        got_rng, want_rng = np.random.default_rng(episodes), np.random.default_rng(episodes)
        got = simulate_batch(policy, model, metas, episodes, got_rng)
        want = one_shot_batch(policy, model, metas, episodes, want_rng)
        assert np.array_equal(got, want["objective"])
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("episodes", [1, 2000, BLOCK])
def test_batch_of_one_block_draws_one_pass_stream(episodes):
    # up to one block, a batch draws every spread pair, then every plus
    # innovation, then every minus one, as a single pass over it does
    model, _, _, policy = fixture_policy()
    metas = ShiftSpec(mean_shift_plus=-0.2, sd_scale_minus=1.5).apply(fixture_samples())
    got = simulate_batch(policy, model, metas, episodes, np.random.default_rng(episodes))
    want = one_pass_batch(policy, model, metas, episodes, np.random.default_rng(episodes))
    assert np.array_equal(got, want["objective"])


def test_shift_experiment_equals_one_shot_rows():
    # 40 000 episodes cross two block edges; every statistic is bit-equal
    buy, sell = fixture_samples()
    model = fixture_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    shift = ShiftSpec(mean_shift_plus=-0.35, sd_scale_plus=1.6,
                      mean_shift_minus=0.25, sd_scale_minus=1.6)
    deltas, episodes, seed = (0.0, 0.02, 0.08), 40000, 11
    rows = shift_experiment((buy, sell), model, dom, deltas=deltas, shift=shift,
                            episodes=episodes, rng_seed=seed)
    summaries = (empirical_moments(buy), empirical_moments(sell))
    laws = shift.apply((buy, sell))
    want = []
    for delta, child in zip(deltas, np.random.SeedSequence(seed).spawn(len(deltas))):
        sol = solve_inner(model, dom, summaries, delta)
        pol = build_policy(model, dom, sol)
        obj = one_shot_batch(pol, model, laws, episodes, np.random.default_rng(child))["objective"]
        mean, p10 = float(np.mean(obj)), float(np.percentile(obj, 10.0))
        # the squares are summed in the order the 10th percentile's selection leaves
        obj.partition(math.floor((episodes - 1) * 0.1))
        dev = obj - mean
        want.append(simulator.ShiftRow(
            delta=delta, mean_objective=mean,
            std_err=math.sqrt(float(np.sum(dev * dev)) / (episodes - 1)) / math.sqrt(episodes),
            p10_objective=p10, concave_certificate=sol.concave_certificate))
    assert rows == tuple(want)


def traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_memory_stays_within_one_and_a_half_episode_arrays():
    # a batch returns its one episode-long array, the objective; every
    # other array lives for one cache-sized block
    episodes = 1_000_000
    model, _, _, policy = fixture_policy_on(SpreadDomain(eps_max=0.8, grid_n=65))
    metas = ShiftSpec().apply(fixture_samples())
    peak = traced_peak(simulate_batch, policy, model, metas, episodes, np.random.default_rng(3))
    assert peak <= 1.5 * 8 * episodes, peak / (8 * episodes)


def test_shift_experiment_memory_holds_one_batch_at_a_time():
    # three radii at 10^6 episodes: no radius's objective outlives its row,
    # and its statistics take no second episode-long array
    episodes = 1_000_000
    peak = traced_peak(shift_experiment, fixture_samples(), fixture_model(),
                       SpreadDomain(eps_max=0.8, grid_n=65), deltas=(0.0, 0.02, 0.08),
                       shift=ShiftSpec(mean_shift_plus=-0.1), episodes=episodes, rng_seed=5)
    assert peak <= 1.5 * 8 * episodes, peak / (8 * episodes)


_RSS_PROBE = """
import resource, sys
sys.path.insert(0, sys.argv[1])
from robustmm import ShiftSpec, SpreadDomain, shift_experiment
from test_simulator import fixture_model, fixture_samples

def peak_kb_after(episodes):
    shift_experiment(fixture_samples(), fixture_model(), SpreadDomain(eps_max=0.8, grid_n=65),
                     deltas=(0.0, 0.02, 0.08), shift=ShiftSpec(mean_shift_plus=-0.1),
                     episodes=episodes, rng_seed=5)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

print(peak_kb_after(1000), peak_kb_after(1_000_000))
"""


def test_shift_experiment_resident_growth_within_two_episode_arrays():
    # tracemalloc sees no heap layout, which can hold resident pages that a
    # freed array left; a fresh interpreter's peak resident set (Linux
    # reports KiB) may grow by two arrays after a warm-up run
    episodes = 1_000_000
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", _RSS_PROBE, str(Path(__file__).parent)], env=env,
                         capture_output=True, text=True, check=True).stdout
    warm_kb, run_kb = map(int, out.split())
    growth = (run_kb - warm_kb) * 1024
    assert growth <= 2 * 8 * episodes, growth / (8 * episodes)


def std_err_of(monkeypatch, obj):
    """shift_experiment's std_err for a batch that books obj."""
    monkeypatch.setattr(simulator, "simulate_batch", lambda *args: obj.copy())
    (row,) = shift_experiment(fixture_samples(), fixture_model(), SpreadDomain(eps_max=0.8, grid_n=33),
                              deltas=(0.0,), shift=ShiftSpec(), episodes=obj.size, rng_seed=0)
    return row.std_err


@pytest.mark.parametrize("episodes", [1000, BLOCK + 1, 1_000_000])
def test_std_err_matches_two_pass_fsum(monkeypatch, episodes):
    # the squared deviations are summed in place, in the order the selection leaves
    obj = np.random.default_rng(episodes).normal(-0.6, 1.7, episodes)
    mean = math.fsum(obj) / episodes
    want = math.sqrt(math.fsum(np.square(obj - mean)) / (episodes - 1) / episodes)
    assert std_err_of(monkeypatch, obj) == pytest.approx(want, rel=1e-13, abs=0.0)
    # a dyadic constant sums exactly, so each of its deviations is 0
    assert std_err_of(monkeypatch, np.full(episodes, -0.625)) == 0.0


def test_monte_carlo_matches_quadrature():
    model, dom, sol, pol = fixture_policy()
    ap, am = sol.alpha_star_plus, sol.alpha_star_minus
    bp, bm = sol.beta_star_plus, sol.beta_star_minus
    metas = (GaussianLaw(ap, math.sqrt(bp - ap * ap)), GaussianLaw(am, math.sqrt(bm - am * am)))
    rng = np.random.default_rng(71)
    obj = simulate_batch(pol, model, metas, 100000, rng)
    mc = float(np.mean(obj))
    se = float(np.std(obj, ddof=1) / math.sqrt(len(obj)))
    quad = expected_reward(model, pol, ap, am, bp, bm)
    assert abs(mc - quad) <= 3.0 * se


def test_standard_error_scales_with_episodes():
    model, dom, sol, pol = fixture_policy()
    metas = (GaussianLaw(0.8, 0.4), GaussianLaw(0.7, 0.5))

    def se(episodes, seed):
        obj = simulate_batch(pol, model, metas, episodes, np.random.default_rng(seed))
        return float(np.std(obj, ddof=1) / math.sqrt(episodes))

    ratio = se(10000, 5) / se(1000000, 6)
    assert 8.0 <= ratio <= 12.0


def test_shift_experiment_deterministic():
    buy, sell = fixture_samples()
    model = fixture_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    kw = dict(deltas=(0.0, 0.02), shift=ShiftSpec(), episodes=2000, rng_seed=9)
    a = shift_experiment((buy, sell), model, dom, **kw)
    b = shift_experiment((buy, sell), model, dom, **kw)
    assert a == b


def test_shift_experiment_rows_independent_of_other_deltas():
    # appending a radius must not disturb earlier rows (spawned streams)
    buy, sell = fixture_samples()
    model = fixture_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    shift = ShiftSpec(mean_shift_plus=-0.1)
    short = shift_experiment((buy, sell), model, dom, deltas=(0.0, 0.02),
                             shift=shift, episodes=2000, rng_seed=4)
    longer = shift_experiment((buy, sell), model, dom, deltas=(0.0, 0.02, 0.05),
                              shift=shift, episodes=2000, rng_seed=4)
    assert short == longer[:2]


def test_shift_experiment_replays_shifted_sample():
    # each row scores its radius's policy on the atoms
    # mean + mean_shift + sd_scale (x - mean), drawn on the k-th spawned stream
    buy, sell = fixture_samples()
    model = fixture_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    knobs = ((-0.2, 1.4), (0.15, 0.6))
    shift = ShiftSpec(mean_shift_plus=-0.2, sd_scale_plus=1.4,
                      mean_shift_minus=0.15, sd_scale_minus=0.6)
    deltas, episodes, seed = (0.0, 0.02), 2000, 5
    rows = shift_experiment((buy, sell), model, dom, deltas=deltas, shift=shift,
                            episodes=episodes, rng_seed=seed)
    summaries = (empirical_moments(buy), empirical_moments(sell))
    laws = tuple(
        MetaDistribution(tuple(s.alpha_n + ms + sc * (sample.as_array() - s.alpha_n)))
        for sample, s, (ms, sc) in zip((buy, sell), summaries, knobs))
    children = np.random.SeedSequence(seed).spawn(len(deltas))
    assert len(rows) == len(deltas)
    for row, delta, child in zip(rows, deltas, children):
        sol = solve_inner(model, dom, summaries, delta)
        pol = build_policy(model, dom, sol)
        obj = simulate_batch(pol, model, laws, episodes, np.random.default_rng(child))
        want = (float(np.mean(obj)), float(np.std(obj, ddof=1) / math.sqrt(episodes)),
                float(np.percentile(obj, 10.0)))
        assert row.delta == delta
        assert (row.mean_objective, row.std_err, row.p10_objective) == pytest.approx(want, rel=1e-12)
        assert row.concave_certificate == sol.concave_certificate


# every N in 1000-1100 gives g = 0, 0 < g < 0.5 and g >= 0.5; then both sides of a block edge and the cap
P10_SIZES = (*range(1000, 1101), BLOCK - 1, BLOCK, BLOCK + 1, 1_000_000, simulator._EPISODES_MAX)


def two_level(rng, n):
    # order statistic k is -3.7 and k + 1 is 0.3: the two ends of numpy's lerp round apart
    x = np.full(n, 0.3)
    x[:math.floor((n - 1) * 0.1) + 1] = -3.7
    return rng.permutation(x)


P10_INPUTS = {
    "normal": lambda rng, n: rng.standard_normal(n),
    "ties": lambda rng, n: np.round(rng.standard_normal(n), 1),
    "two-level": two_level,
    "constant": lambda rng, n: np.full(n, -0.7),
    "sorted": lambda rng, n: np.sort(rng.standard_normal(n)),
    "reversed": lambda rng, n: np.sort(rng.standard_normal(n))[::-1].copy(),
}


@pytest.mark.parametrize("kind", P10_INPUTS)
def test_p10_equals_numpy_percentile(kind):
    gs = {(n - 1) * 0.1 - math.floor((n - 1) * 0.1) for n in P10_SIZES}
    assert 0.0 in gs and min(gs - {0.0}) < 0.5 <= max(gs)
    rng = np.random.default_rng(17)
    for n in P10_SIZES:
        # ten draws per small size: a selection seldom leaves a non-minimum just right of k
        for _ in range(10 if n <= 1100 else 1):
            x = P10_INPUTS[kind](rng, n)
            want = np.percentile(x, 10.0)
            got = simulator._p10(x)
            assert np.float64(got).tobytes() == want.tobytes(), (n, got, want)


_MA_PROBE = """
import sys
from robustmm import shift_experiment
from robustmm.cli import _load_samples
from robustmm.config import parse_config
cfg = parse_config(sys.argv[1])
shift_experiment(_load_samples(cfg), cfg.require_model(), cfg.require_domain(), deltas=cfg.sim_deltas,
                 shift=cfg.shift, episodes=cfg.episodes, rng_seed=cfg.seed)
print("numpy.ma" in sys.modules)
"""


def test_shift_experiment_leaves_numpy_ma_unimported():
    # np.percentile imports numpy.ma on its first call, and the module's
    # long-lived objects land in the freed heap of the first radius's batch
    cfg = Path(__file__).parent / "fixtures" / "simulate.cfg"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", _MA_PROBE, str(cfg)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False"]


def test_shift_experiment_validation():
    buy, sell = fixture_samples()
    model = fixture_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    with pytest.raises(ValueError, match="episodes"):
        shift_experiment((buy, sell), model, dom, deltas=(0.0,),
                         shift=ShiftSpec(), episodes=500, rng_seed=0)
    with pytest.raises(ValueError, match="negative"):
        shift_experiment((buy, sell), model, dom, deltas=(-0.01,),
                         shift=ShiftSpec(), episodes=2000, rng_seed=0)
    for delta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="radius must be finite"):
            shift_experiment((buy, sell), model, dom, deltas=(0.0, delta),
                             shift=ShiftSpec(), episodes=2000, rng_seed=0)


def test_robustness_pays_under_adverse_shift():
    # buy-side demand drops and both sides get noisier: larger radii must
    # not do worse, and here the ordering is strict well beyond noise
    buy, sell = fixture_samples()
    model = fixture_model()
    dom = SpreadDomain(eps_max=0.8, grid_n=33)
    shift = ShiftSpec(mean_shift_plus=-0.35, sd_scale_plus=1.6,
                      mean_shift_minus=0.25, sd_scale_minus=1.6)
    rep = shift_experiment((buy, sell), model, dom, deltas=(0.0, 0.02, 0.08),
                           shift=shift, episodes=40000, rng_seed=11)
    r0, r1, r2 = rep
    assert r2.mean_objective > r0.mean_objective + 2.0 * (r2.std_err + r0.std_err)
    assert r1.mean_objective > r0.mean_objective
    assert r2.p10_objective > r0.p10_objective


def test_meta_distribution_validation():
    with pytest.raises(ValueError, match="atoms"):
        MetaDistribution(())
    with pytest.raises(ValueError, match="sd_scale_minus must be nonnegative"):
        ShiftSpec(sd_scale_minus=-0.5)
