"""Generated inputs for each workload, and the checks on robustmm's outputs.

A workload turns a seed into one round of operations. Each operation is
one robustmm command line run on its own config and CSV files, and its
outputs are checked against references.py. Parameters that drive the
cost of an operation (the budget, the bootstrap level) are stratified
across the round, so every seed gives a round with the same mix of work.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import references as ref

# Relative tolerances of the checks on solve outputs.
ENVELOPE_RTOL = 1e-12
OBJECTIVE_RTOL = 1e-9
LATTICE_RTOL = 1e-8
DENSITY_RTOL = 1e-9
MASS_TOL = 1e-6
LATTICE_POINTS = 9
# Standard errors a simulated mean may sit from its expectation.
SWEEP_SIGMAS = 4.0
# Fresh bootstrap targets drawn to check a radius.chi budget, and the
# binomial slack on its coverage, in standard deviations.
COVERAGE_TARGETS = 2000
COVERAGE_SIGMAS = 4.0


@dataclass
class Operation:
    """One command line call, its inputs and where its outputs go."""

    command: str
    directory: Path
    model: dict | None
    buy: np.ndarray
    sell: np.ndarray
    params: dict = field(default_factory=dict)

    @property
    def config(self) -> Path:
        return self.directory / "run.cfg"

    def argv(self, out: Path) -> list[str]:
        return [self.command, "--config", str(self.config), "--out", str(out)]


def _spec_text(spec) -> str:
    kind, params = spec
    return f"{kind}({', '.join(repr(float(p)) for p in params)})"


def _write_operation(op: Operation, keys: dict) -> Operation:
    op.directory.mkdir(parents=True, exist_ok=True)
    for side, values in (("buy", op.buy), ("sell", op.sell)):
        lines = ["value"] + [repr(float(v)) for v in values]
        (op.directory / f"{side}.csv").write_text("\n".join(lines) + "\n")
    lines = ["samples.buy = buy.csv", "samples.sell = sell.csv"]
    if op.model is not None:
        for key in ("S", "Q", "eta", "gamma"):
            lines.append(f"model.{key} = {op.model[key]!r}")
        for key in ("f_plus", "f_minus", "h_plus", "h_minus"):
            lines.append(f"model.{key} = {_spec_text(op.model[key])}")
    lines += [f"{key} = {value}" for key, value in keys.items()]
    op.config.write_text("\n".join(lines) + "\n")
    return op


def _gamma_sample(rng, n):
    """Positive order sizes with mean near 1 and a varying dispersion."""
    mean = rng.uniform(0.8, 1.2)
    shape = 1.0 / rng.uniform(0.3, 0.5) ** 2
    return rng.gamma(shape, mean / shape, size=n)


def _model(rng) -> dict:
    return {
        "S": float(rng.uniform(4.0, 6.0)),
        "Q": float(rng.uniform(-1.0, 1.0)),
        "eta": float(rng.uniform(0.4, 1.0)),
        "gamma": float(rng.uniform(1.5, 3.0)),
        "f_plus": ("constant", (float(rng.uniform(0.1, 0.3)),)),
        "f_minus": ("constant", (float(rng.uniform(0.1, 0.3)),)),
        "h_plus": ("exp_decay", (float(rng.uniform(0.8, 1.2)), float(rng.uniform(0.8, 1.6)))),
        "h_minus": ("exp_decay", (float(rng.uniform(0.8, 1.2)), float(rng.uniform(0.8, 1.6)))),
    }


def _certificate_cap(buy, sell) -> float:
    """sqrt(var+ * var-): the largest budget the concavity certificate covers."""
    return math.sqrt(ref.sample_moments(buy)[2] * ref.sample_moments(sell)[2])


def _stratum(rng, k, count, lo, hi) -> float:
    return lo + (hi - lo) * (k + rng.uniform()) / count


# ---------------------------------------------------------------- quote

QUOTE_OPS = 8
QUOTE_SAMPLES = 300
QUOTE_RESAMPLES = 500


def quote_round(seed: int, root: Path) -> list[Operation]:
    """robustmm solve at the default grid; even slots take the budget from
    radius.chi by bootstrap, odd slots from a certified radius.delta."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for k in range(QUOTE_OPS):
        buy = _gamma_sample(rng, QUOTE_SAMPLES)
        sell = _gamma_sample(rng, QUOTE_SAMPLES)
        model = _model(rng)
        eps_max = float(rng.uniform(0.6, 1.0))
        keys = {"domain.eps_max": repr(eps_max)}
        half = QUOTE_OPS // 2
        if k % 2 == 0:
            chi = _stratum(rng, k // 2, half, 0.05, 0.2)
            keys["radius.chi"] = repr(chi)
            keys["radius.resamples"] = str(QUOTE_RESAMPLES)
            params = {"chi": chi}
        else:
            delta = _stratum(rng, k // 2, half, 0.1, 0.9) * _certificate_cap(buy, sell)
            keys["radius.delta"] = repr(delta)
            params = {"delta": delta}
        keys["seed"] = str(int(rng.integers(0, 2**31)))
        params.update(eps_max=eps_max, grid_n=257)
        ops.append(_write_operation(
            Operation("solve", root / f"op{k}", model, buy, sell, params), keys))
    return ops


def check_solved_moments(op, grid, delta, moments, objective):
    """Checks shared by quote and sweep on one solve's adversarial moments:
    alpha* in the mean box, beta* on the envelope, the objective equal to
    the reference at those moments, and that reference no lower than the
    reference at any point of a lattice over the mean box."""
    errors = []
    ap, am, bp, bm = moments
    root = math.sqrt(delta)
    sides = (ref.sample_moments(op.buy), ref.sample_moments(op.sell))
    for name, alpha, beta, (alpha_n, _, var) in (("plus", ap, bp, sides[0]),
                                                 ("minus", am, bm, sides[1])):
        if not (alpha_n - root <= alpha <= alpha_n + root):
            errors.append(f"alpha_{name} {alpha!r} outside [{alpha_n - root!r}, {alpha_n + root!r}]")
        want = float(ref.envelope(alpha_n, var, delta, alpha))
        if abs(beta - want) > ENVELOPE_RTOL * abs(want):
            errors.append(f"beta_{name} {beta!r} is off the envelope {want!r}")
    best = grid.objective(ap, am, bp, bm)
    if abs(objective - best) > OBJECTIVE_RTOL * abs(best):
        errors.append(f"objective {objective!r} differs from the reference {best!r}")
    if delta > 0.0:
        lattice = [np.linspace(alpha_n - root, alpha_n + root, LATTICE_POINTS)
                   for alpha_n, _, _ in sides]
        top = max(
            grid.objective(a_plus, a_minus,
                           float(ref.envelope(sides[0][0], sides[0][2], delta, a_plus)),
                           float(ref.envelope(sides[1][0], sides[1][2], delta, a_minus)))
            for a_plus in lattice[0] for a_minus in lattice[1])
        if best < top - LATTICE_RTOL * abs(best):
            errors.append(f"the solution scores {best!r}, below the lattice maximum {top!r}")
    return errors


_FLOAT = r"[-+]?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?"
# A field is a plain float or exactly repr(np.float64(x)). The second form
# is what the program writes under numpy 2; accept it only until cmd_solve
# writes plain floats.
_POLICY_FIELD = re.compile(rf"{_FLOAT}|np\.float64\(({_FLOAT})\)")


def read_policy_csv(path: Path) -> np.ndarray:
    """policy.csv as an (n*n, 3) array; ValueError on any other field than
    a float or np.float64(<float>). The number inside the wrapper is read,
    so the density is still checked to full precision."""
    rows = []
    for number, line in enumerate(path.read_text().splitlines()[1:], start=2):
        row = []
        for text in line.split(","):
            match = _POLICY_FIELD.fullmatch(text)
            if match is None:
                raise ValueError(f"{path.name} line {number}: {text!r} is not a number")
            row.append(float(match.group(1) or text))
        rows.append(row)
    return np.array(rows, dtype=float, ndmin=2)


def check_quote(op: Operation, solution: dict, policy: np.ndarray, rng) -> list[str]:
    errors = []
    n = op.params["grid_n"]
    grid = ref.GibbsGrid(op.model, op.params["eps_max"], n)
    delta = solution["delta"]
    if "delta" in op.params and delta != op.params["delta"]:
        errors.append(f"budget {delta!r} is not the configured {op.params['delta']!r}")
    if not solution["concave_certificate"]:
        errors.append("certified budget reported without the certificate")
    moments = (solution["alpha_star"]["plus"], solution["alpha_star"]["minus"],
               solution["beta_star"]["plus"], solution["beta_star"]["minus"])
    errors += check_solved_moments(op, grid, delta, moments, solution["objective"])

    if policy.shape != (n * n, 3):
        return errors + [f"policy.csv has shape {policy.shape}, not ({n * n}, 3)"]
    nodes_plus = policy[:, 0].reshape(n, n)[:, 0]
    nodes_minus = policy[:, 1].reshape(n, n)[0, :]
    if not (np.allclose(nodes_plus, grid.x, rtol=0, atol=1e-15)
            and np.allclose(nodes_minus, grid.x, rtol=0, atol=1e-15)):
        errors.append("policy.csv spread nodes are not the trapezoid nodes")
    density = policy[:, 2].reshape(n, n)
    if np.any(density < 0.0):
        errors.append("policy.csv has a negative density")
    mass = float(np.sum(density * grid.wprod))
    if abs(mass - 1.0) > MASS_TOL:
        errors.append(f"policy.csv integrates to {mass!r}")
    want = grid.density(*moments)
    if not np.allclose(density, want, rtol=DENSITY_RTOL, atol=DENSITY_RTOL * float(np.max(want))):
        gap = float(np.max(np.abs(density - want)))
        errors.append(f"policy.csv is off the reference Gibbs density by up to {gap!r}")

    if "chi" in op.params:
        errors += check_coverage(op, delta, op.params["chi"], rng)
    return errors


def check_coverage(op: Operation, budget: float, chi: float, rng) -> list[str]:
    """R <= 2 delta_hat^2 (= 2 * budget) on at least a 1 - chi share of
    fresh bootstrap targets, less a binomial slack covering both this
    draw and the program's own QUOTE_RESAMPLES rounds."""
    n = len(op.buy)
    plus = ref.sample_moments(op.buy)
    minus = ref.sample_moments(op.sell)
    alpha_n = np.array([plus[0], minus[0]])
    sigma_n = np.array([[plus[1], plus[0] * minus[0]], [plus[0] * minus[0], minus[1]]])
    vp = op.buy[rng.integers(0, n, size=(COVERAGE_TARGETS, n))]
    vm = op.sell[rng.integers(0, n, size=(COVERAGE_TARGETS, n))]
    targets = (vp.mean(axis=1), vm.mean(axis=1), (vp * vp).mean(axis=1), (vm * vm).mean(axis=1))
    share = float(np.mean(ref.profile_values(alpha_n, sigma_n, n, targets) <= 2.0 * budget))
    slack = COVERAGE_SIGMAS * math.sqrt(chi * (1.0 - chi) * (1.0 / QUOTE_RESAMPLES
                                                            + 1.0 / COVERAGE_TARGETS))
    if share < 1.0 - chi - slack:
        return [f"radius covers {share:.4f} of fresh targets, below {1.0 - chi:.4f} - {slack:.4f}"]
    return []


# ---------------------------------------------------------------- sweep

SWEEP_OPS = 4
SWEEP_SAMPLES = 200
SWEEP_GRID = 65
SWEEP_EPISODES = 1_000_000


def sweep_round(seed: int, root: Path) -> list[Operation]:
    """robustmm simulate over budgets 0, a certified one and one above
    sqrt(var+ * var-), on a coarse grid with 10^6 episodes per budget."""
    rng = np.random.default_rng([seed, 2])
    ops = []
    for k in range(SWEEP_OPS):
        buy = _gamma_sample(rng, SWEEP_SAMPLES)
        sell = _gamma_sample(rng, SWEEP_SAMPLES)
        model = _model(rng)
        eps_max = float(rng.uniform(0.6, 1.0))
        cap = _certificate_cap(buy, sell)
        deltas = (0.0, _stratum(rng, k, SWEEP_OPS, 0.3, 0.8) * cap,
                  _stratum(rng, k, SWEEP_OPS, 1.2, 2.0) * cap)
        shift = {"mean_plus": float(rng.uniform(-0.1, 0.1)),
                 "sd_scale_plus": float(rng.uniform(0.8, 1.3)),
                 "mean_minus": float(rng.uniform(-0.1, 0.1)),
                 "sd_scale_minus": float(rng.uniform(0.8, 1.3))}
        keys = {
            "domain.eps_max": repr(eps_max),
            "domain.grid_n": str(SWEEP_GRID),
            "simulate.deltas": ", ".join(repr(d) for d in deltas),
            "simulate.episodes": str(SWEEP_EPISODES),
            "simulate.shift_mean_plus": repr(shift["mean_plus"]),
            "simulate.shift_sd_scale_plus": repr(shift["sd_scale_plus"]),
            "simulate.shift_mean_minus": repr(shift["mean_minus"]),
            "simulate.shift_sd_scale_minus": repr(shift["sd_scale_minus"]),
            "seed": str(int(rng.integers(0, 2**31))),
        }
        params = {"eps_max": eps_max, "grid_n": SWEEP_GRID, "deltas": deltas, "shift": shift}
        ops.append(_write_operation(
            Operation("simulate", root / f"op{k}", model, buy, sell, params), keys))
    return ops


def read_shift_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(op: Operation, rows: list[dict], solved: list) -> list[str]:
    """rows from shift.csv; solved holds (delta, moments, objective) from
    the public solve_inner, one per configured budget."""
    errors = []
    deltas = op.params["deltas"]
    if [float(r["delta"]) for r in rows] != list(deltas):
        return [f"shift.csv budgets {[r['delta'] for r in rows]} are not {deltas}"]
    grid = ref.GibbsGrid(op.model, op.params["eps_max"], op.params["grid_n"])
    shift = op.params["shift"]
    law_plus = ref.shifted_law_moments(op.buy, shift["mean_plus"], shift["sd_scale_plus"])
    law_minus = ref.shifted_law_moments(op.sell, shift["mean_minus"], shift["sd_scale_minus"])
    plus, minus = ref.sample_moments(op.buy), ref.sample_moments(op.sell)
    for row, (delta, moments, objective) in zip(rows, solved):
        certified = plus[2] * minus[2] >= delta * delta
        if (row["concave_certificate"] == "true") != certified:
            errors.append(f"delta {delta!r}: certificate flag {row['concave_certificate']}")
        errors += [f"delta {delta!r}: {e}" for e in
                   check_solved_moments(op, grid, delta, moments, objective)]
        probs = grid.density(*moments) * grid.wprod
        want = ref.expected_episode_objective(grid, op.model, probs, law_plus, law_minus)
        mean, err = float(row["mean_objective"]), float(row["std_err"])
        if not abs(mean - want) <= SWEEP_SIGMAS * err:
            errors.append(f"delta {delta!r}: mean objective {mean!r} is "
                          f"{abs(mean - want) / err:.1f} standard errors from {want!r}")
    return errors


def solve_publicly(op):
    """(delta, moments, objective) per budget from the public solve_inner."""
    import robustmm
    from robustmm.config import parse_config

    cfg = parse_config(op.config)
    summaries = (robustmm.empirical_moments(robustmm.read_sample_csv(cfg.samples_buy, "buy")),
                 robustmm.empirical_moments(robustmm.read_sample_csv(cfg.samples_sell, "sell")))
    solved = []
    for delta in cfg.sim_deltas:
        s = robustmm.solve_inner(cfg.model, cfg.domain, summaries, delta)
        solved.append((delta, (s.alpha_star_plus, s.alpha_star_minus,
                               s.beta_star_plus, s.beta_star_minus), s.objective))
    return solved


# ---------------------------------------------------------------- validate

VALIDATE_OPS = 4
VALIDATE_SAMPLES = 5
VALIDATE_DELTAS = (0.01, 0.04, 0.25)
VALIDATE_TOL = 1e-4


def validate_round(seed: int, root: Path) -> list[Operation]:
    """robustmm validate on five order sizes per side, below the oracle's
    cap of six atoms."""
    rng = np.random.default_rng([seed, 3])
    ops = []
    for k in range(VALIDATE_OPS):
        buy = rng.uniform(0.2, 1.5, size=VALIDATE_SAMPLES)
        sell = rng.uniform(0.2, 1.5, size=VALIDATE_SAMPLES)
        keys = {"validate.deltas": ", ".join(repr(d) for d in VALIDATE_DELTAS),
                "validate.tol": repr(VALIDATE_TOL),
                "seed": str(int(rng.integers(0, 2**31)))}
        ops.append(_write_operation(Operation("validate", root / f"op{k}", None, buy, sell), keys))
    return ops


def check_validate(op: Operation, rows: list[dict]) -> list[str]:
    """Every passing row within validate.tol of the closed forms:
    alpha_n +/- sqrt(delta) for the mean ends, beta(alpha) for the upper
    envelope, and the known transport distances and profile zero."""
    errors = []
    wanted = {"w2_point_masses": 9.0, "w2_shifted_pair": 1.0, "w2_self": 0.0,
              "profile_at_empirical": 0.0, "profile_nonnegative_min": 0.0}
    for side, values in (("buy", op.buy), ("sell", op.sell)):
        alpha_n, _, var = ref.sample_moments(values)
        for delta in VALIDATE_DELTAS:
            root = math.sqrt(delta)
            wanted[f"mean_max[{side},delta={delta:g}]"] = alpha_n + root
            wanted[f"mean_min[{side},delta={delta:g}]"] = alpha_n - root
            for t in (-0.8, -0.4, 0.0, 0.4, 0.8):
                wanted[f"beta_upper[{side},delta={delta:g},t={t:g}]"] = float(
                    ref.envelope(alpha_n, var, delta, alpha_n + t * root))
    checked = set()
    for row in rows:
        name = row["check"]
        if row["pass"] is None:
            continue
        if name == "gram_bound_below_one":
            checked.add(name)
            if not row["oracle"] < 1.0:
                errors.append(f"gram bound {row['oracle']!r} is not below one")
            continue
        if name not in wanted:
            errors.append(f"unexpected check row {name}")
            continue
        checked.add(name)
        want = wanted[name]
        if not row["pass"] or abs(row["oracle"] - want) > VALIDATE_TOL * (1.0 + abs(want)):
            errors.append(f"{name}: oracle {row['oracle']!r} against closed form {want!r}")
    missing = set(wanted) - checked
    if missing:
        errors.append(f"rows missing from validation.json: {sorted(missing)}")
    return errors


# ---------------------------------------------------------------- shared

def output_digest(out: Path) -> str:
    """Hash of every file an operation wrote, so a repeated operation can
    be held to the bytes its first run produced."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def load_json(path: Path):
    return json.loads(path.read_text())
