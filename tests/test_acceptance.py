"""Acceptance gate: ten contract-level checks, one verdict line each.

Every test prints a single PASS/FAIL line with its measured margin
before asserting, so a full run reads as a ten-line report. All seeds
are fixed; reruns are bit-for-bit deterministic.
"""
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from robustmm import (
    DiscreteMeasure,
    EmpiricalSummary,
    MomentTarget,
    RobustSolution,
    SampleSet,
    alpha_range,
    build_policy,
    concavity_check,
    empirical_moments,
    expected_reward,
    gram_bound_check,
    moment_range_search,
    robust_profile,
    select_radius,
    simulate_batch,
    solve_inner,
    theorem_beta_envelope,
    worst_case_objective,
)
from robustmm.cli import main
from robustmm.policy import _GridEvaluator
from robustmm.validation import BRACKET_SLACK

from helpers import (GaussianLaw, exponent_table, fd_hessian, mean_box, one_shot_batch, rand_instance, rand_samples,
                     refined_grid_max)

FIXTURES = Path(__file__).parent / "fixtures"


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_01_moment_bounds_match_oracle():
    # each closed form matches its bracket's witness value and lies inside
    # the bracket [value, bound], up to the validation rounding slack
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = widest = 0.0
    outside = 0

    def check(ref, bracket):
        nonlocal worst, widest, outside
        got, bound = bracket
        scale = 1.0 + abs(ref)
        worst = max(worst, abs(got - ref) / scale)
        widest = max(widest, abs(bound - got) / scale)
        slack = BRACKET_SLACK * scale
        outside += not (min(got, bound) - slack <= ref <= max(got, bound) + slack)

    for _ in range(50):
        samples = rand_samples(rng, "buy", n=int(rng.integers(3, 7)))
        summary = empirical_moments(samples)
        measure = DiscreteMeasure.from_samples(samples)
        for delta in (0.01, 0.04, 0.25):
            lo, hi = alpha_range(summary, delta)
            for objective, ref in (("max_mean", hi), ("min_mean", lo)):
                check(ref, moment_range_search(measure, delta, objective))
            root = math.sqrt(delta)
            for frac in (-0.8, -0.4, 0.0, 0.4, 0.8):
                alpha = summary.alpha_n + frac * root
                ref = theorem_beta_envelope(summary, delta, alpha)
                check(ref, moment_range_search(measure, delta, "max_second_moment", alpha=alpha))
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and outside == 0 and elapsed <= 120.0
    report(1, "moment bounds match transport oracle", ok,
           f"max rel err {worst:.2e}, widest bracket {widest:.2e}, "
           f"{outside} outside their bracket, {elapsed:.1f}s")
    assert ok


def test_02_envelope_identity():
    # compact form (sqrt(var) + sqrt(room))^2 + alpha^2 against the
    # expanded form beta_n + delta + 2 alpha_n d + 2 sqrt(var (delta - d^2))
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(10_000):
        vals = rng.uniform(0.05, 3.0, size=int(rng.integers(2, 9)))
        s = empirical_moments(SampleSet("buy", tuple(vals)))
        delta = float(rng.uniform(1e-4, 1.0))
        d = float(rng.uniform(-0.999, 0.999)) * math.sqrt(delta)
        alpha = s.alpha_n + d
        expanded = (s.beta_n + delta + 2.0 * s.alpha_n * d
                    + 2.0 * math.sqrt(s.variance * (delta - d * d)))
        env = theorem_beta_envelope(s, delta, alpha)
        worst = max(worst, abs(env - expanded) / (1.0 + abs(expanded)))
    ok = worst <= 1e-12
    report(2, "second-moment envelope identity", ok, f"max rel err {worst:.2e}")
    assert ok


def test_03_concavity_certificate():
    rng = np.random.default_rng(103)
    t0 = time.time()

    # certified instances: sampled interior Hessians stay negative
    max_eig = -math.inf
    for _ in range(20):
        model, dom, summaries, delta = rand_instance(rng, cert=True)
        assert concavity_check(summaries, delta)
        lo, hi = mean_box(summaries, delta)
        width = hi - lo

        def fun(x):
            return worst_case_objective(
                model, dom, summaries, delta, float(x[0]), float(x[1]))

        h = 2e-4 * float(np.min(width))
        for _ in range(20):
            x = lo + (0.15 + 0.7 * rng.random(2)) * width
            hess = fd_hessian(fun, x, h)
            scale = 1.0 + float(np.max(np.abs(hess)))
            max_eig = max(max_eig, float(np.linalg.eigvalsh(hess)[-1]) / scale)
    ok_eig = max_eig <= 1e-6

    # uncertified instances: Newton from the center, certified by the
    # Frank-Wolfe gap, still finds the global maximum located by an
    # exhaustive refined grid scan
    worst_gap = 0.0
    for _ in range(20):
        model, dom, summaries, delta = rand_instance(rng, cert=False)
        assert not concavity_check(summaries, delta)
        sol = solve_inner(model, dom, summaries, delta)
        ref = refined_grid_max(model, dom, summaries, delta)
        worst_gap = max(worst_gap, abs(sol.objective - ref) / (1.0 + abs(ref)))
    ok_gap = worst_gap <= 1e-6

    elapsed = time.time() - t0
    ok = ok_eig and ok_gap and elapsed <= 300.0
    report(3, "concavity certificate and global solve", ok,
           f"max scaled Hessian eig {max_eig:.2e}, max grid gap {worst_gap:.2e}, {elapsed:.0f}s")
    assert ok


def test_04_normalization_and_gibbs_optimality():
    rng = np.random.default_rng(104)
    worst_resid = 0.0
    warps_ok = True
    for _ in range(10):
        model, dom, summaries, delta = rand_instance(rng)
        # keep the entropy weight away from zero so the optimality gap
        # under a 1% warp sits far above float noise
        model = replace(model, eta=float(rng.uniform(0.2, 1.2)))
        sol = solve_inner(model, dom, summaries, delta)
        pol = build_policy(model, dom, sol)

        ev = _GridEvaluator(model, dom)
        w = dom.weights
        worst_resid = max(worst_resid, abs(float(np.sum(w * pol.density)) - 1.0))

        reward = model.gamma * exponent_table(
            ev, sol.alpha_star_plus, sol.alpha_star_minus,
            sol.beta_star_plus, sol.beta_star_minus).reshape(pol.density.shape)

        def value(dens):
            mass = dens * w
            ent = -np.sum(mass * np.log(np.maximum(dens, 1e-300)))
            return float(np.sum(mass * reward) + model.gamma * ent)

        base = value(pol.density)
        for _ in range(3):
            signs = np.where(rng.random(pol.density.shape) < 0.5, 1.0, -1.0)
            warped = pol.density * (1.0 + 0.01 * signs)
            warped = warped / np.sum(warped * w)
            if not value(warped) < base:
                warps_ok = False
    ok = worst_resid <= 1e-6 and warps_ok
    report(4, "policy normalization and Gibbs optimality", ok,
           f"max |integral-1| {worst_resid:.2e}, all warps lower value: {warps_ok}")
    assert ok


def test_05_zero_radius_reduction():
    rng = np.random.default_rng(105)
    exact = True
    bitwise = True
    for _ in range(5):
        model, dom, summaries, _ = rand_instance(rng)
        sp, sm = summaries
        sol = solve_inner(model, dom, summaries, 0.0)
        exact &= (sol.alpha_star_plus == sp.alpha_n
                  and sol.alpha_star_minus == sm.alpha_n
                  and sol.beta_star_plus == sp.beta_n
                  and sol.beta_star_minus == sm.beta_n)
        plain = RobustSolution(
            alpha_star_plus=sp.alpha_n, alpha_star_minus=sm.alpha_n,
            beta_star_plus=sp.beta_n, beta_star_minus=sm.beta_n,
            objective=sol.objective, concave_certificate=True, iterations=0, optimality_gap=0.0)
        bitwise &= np.array_equal(
            build_policy(model, dom, sol).density,
            build_policy(model, dom, plain).density)
    ok = exact and bitwise
    report(5, "zero-radius reduction to empirical policy", ok,
           f"moments exact: {exact}, policy grids bitwise equal: {bitwise}")
    assert ok


def test_06_profile_sanity():
    rng = np.random.default_rng(106)
    worst_center = 0.0
    worst_neg = 0.0
    worst_gram = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 30))
        buy = rand_samples(rng, "buy", n=n)
        sell = rand_samples(rng, "sell", n=n)
        summaries = (empirical_moments(buy), empirical_moments(sell))
        sp, sm = summaries
        worst_gram = max(worst_gram, gram_bound_check(summaries))
        center = MomentTarget.from_moments(sp.alpha_n, sm.alpha_n, sp.beta_n, sm.beta_n)
        worst_center = max(worst_center, abs(robust_profile(center, summaries, n)))
        for _ in range(5):
            ap = sp.alpha_n + rng.normal(0, 0.2)
            am = sm.alpha_n + rng.normal(0, 0.2)
            bp = max(sp.beta_n * rng.uniform(0.7, 1.4), ap * ap + 1e-6)
            bm = max(sm.beta_n * rng.uniform(0.7, 1.4), am * am + 1e-6)
            target = MomentTarget.from_moments(float(ap), float(am), float(bp), float(bm))
            worst_neg = min(worst_neg, robust_profile(target, summaries, n))
    ok = worst_center <= 1e-12 and worst_neg >= -1e-12 and worst_gram < 1.0
    report(6, "profile zero at center, nonnegative, gram bound", ok,
           f"|R(center)| {worst_center:.1e}, min R {worst_neg:.1e}, max gram {worst_gram:.4f}")
    assert ok


def test_07_radius_rate():
    rng = np.random.default_rng(107)
    t0 = time.time()
    sizes = (50, 100, 200, 400)
    log_n = []
    log_d = []
    dropped = 0
    for n in sizes:
        for _ in range(200):
            buy = SampleSet("buy", tuple(rng.standard_normal(n)))
            sell = SampleSet("sell", tuple(rng.standard_normal(n)))
            sel = select_radius(buy, sell, chi=0.1, resamples=200,
                                rng_seed=int(rng.integers(0, 2**63)))
            if sel.delta_hat > 0.0:
                log_n.append(math.log(n))
                log_d.append(math.log(sel.delta_hat))
            else:
                dropped += 1
    slope = float(np.polyfit(log_n, log_d, 1)[0])
    slope_sq = 2.0 * slope  # log of the squared radius is exactly doubled
    elapsed = time.time() - t0
    ok = -1.3 <= slope <= -0.7 and dropped == 0 and elapsed <= 600.0
    report(7, "selected radius shrinks like 1/n", ok,
           f"slope log delta_hat {slope:.3f}, slope log delta_hat^2 {slope_sq:.3f}, {elapsed:.0f}s")
    assert ok


def test_08_radius_covers_true_moments():
    rng = np.random.default_rng(108)
    n = 100
    draws = 500
    truth = MomentTarget.from_moments(0.0, 0.0, 1.0, 1.0)
    hits = 0
    for _ in range(draws):
        buy = SampleSet("buy", tuple(rng.standard_normal(n)))
        sell = SampleSet("sell", tuple(rng.standard_normal(n)))
        sel = select_radius(buy, sell, chi=0.1, resamples=300,
                            rng_seed=int(rng.integers(0, 2**63)))
        summaries = (empirical_moments(buy), empirical_moments(sell))
        if robust_profile(truth, summaries, n) <= 2.0 * sel.delta_hat**2:
            hits += 1
    rate = hits / draws
    ok = rate >= 0.88
    report(8, "radius covers the true moments", ok,
           f"coverage {rate:.1%} over {draws} draws at chi=0.1")
    assert ok


def test_09_simulator_matches_quadrature():
    rng = np.random.default_rng(109)
    worst_z = 0.0
    identities = True
    for k in range(5):
        model, dom, summaries, delta = rand_instance(rng)
        sol = solve_inner(model, dom, summaries, delta)
        pol = build_policy(model, dom, sol)
        ap, am = sol.alpha_star_plus, sol.alpha_star_minus
        bp, bm = sol.beta_star_plus, sol.beta_star_minus
        metas = (GaussianLaw(ap, math.sqrt(bp - ap * ap)),
                 GaussianLaw(am, math.sqrt(bm - am * am)))
        obj = simulate_batch(pol, model, metas, 100_000,
                             np.random.default_rng(900 + k))
        # the batch keeps no spreads or fills: take them from the reference replay of its stream
        replay = one_shot_batch(pol, model, metas, 100_000,
                                np.random.default_rng(900 + k))
        identities &= np.array_equal(obj, replay["objective"])
        cash = ((model.S + replay["eps_plus"]) * replay["fill_plus"]
                - (model.S - replay["eps_minus"]) * replay["fill_minus"])
        inv = model.Q + replay["fill_plus"] - replay["fill_minus"]
        identities &= np.array_equal(obj, cash - model.eta * inv * inv)
        mc = float(np.mean(obj))
        se = float(np.std(obj, ddof=1) / math.sqrt(len(cash)))
        quad = expected_reward(model, pol, ap, am, bp, bm)
        worst_z = max(worst_z, abs(mc - quad) / se)
    ok = worst_z <= 3.0 and identities
    report(9, "Monte Carlo matches quadrature", ok,
           f"max |z| {worst_z:.2f} over 5 fixtures, identities exact: {identities}")
    assert ok


def test_10_cli_reproducibility(tmp_path):
    commands = (("solve", "solve.cfg"), ("radius", "radius.cfg"),
                ("simulate", "simulate.cfg"), ("validate", "validate.cfg"))
    identical = True
    clean = True
    for command, cfg in commands:
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{command}-{tag}"
            clean &= main([command, "--config", str(FIXTURES / cfg),
                           "--out", str(out)]) == 0
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        identical &= outs[0] == outs[1]
    ok = identical and clean
    report(10, "CLI outputs byte-identical across reruns", ok,
           f"all commands exit 0: {clean}, reruns identical: {identical}")
    assert ok
