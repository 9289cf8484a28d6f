import json
from pathlib import Path

import numpy as np
import pytest

from robustmm import build_policy, empirical_moments, read_sample_csv, solve_inner
from robustmm.cli import main
from robustmm.config import ConfigError, parse_config

FIXTURES = Path(__file__).parent / "fixtures"


def run(command, cfg, out, seed=None):
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv)


def read_all(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_solve_writes_policy_and_summary(tmp_path):
    out = tmp_path / "out"
    assert run("solve", FIXTURES / "solve.cfg", out) == 0
    summary = json.loads((out / "solution.json").read_text())
    assert set(summary) == {"alpha_star", "beta_star", "objective", "delta",
                            "concave_certificate", "eps_max", "grid_n"}
    assert summary["delta"] == 0.02
    assert summary["concave_certificate"] is True
    header = (out / "policy.csv").read_text().splitlines()[0]
    assert header == "eps_plus,eps_minus,density"
    rows = (out / "policy.csv").read_text().splitlines()[1:]
    assert len(rows) == 33 * 33
    table = np.loadtxt(out / "policy.csv", delimiter=",", skiprows=1)
    cfg = parse_config(FIXTURES / "solve.cfg")
    model, domain = cfg.require_model(), cfg.require_domain()
    buy, sell = cfg.require_samples()
    summaries = (empirical_moments(read_sample_csv(buy, "buy")),
                 empirical_moments(read_sample_csv(sell, "sell")))
    policy = build_policy(model, domain, solve_inner(model, domain, summaries, cfg.delta))
    assert np.array_equal(table[:, 2], policy.density.ravel())
    assert np.array_equal(table[:, 0], np.repeat(domain.axis_nodes, 33))
    assert np.array_equal(table[:, 1], np.tile(domain.axis_nodes, 33))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["seed"] == 7


def test_solve_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("solve", FIXTURES / "solve.cfg", out1) == 0
    assert run("solve", FIXTURES / "solve.cfg", out2) == 0
    assert read_all(out1) == read_all(out2)


def test_radius_output(tmp_path):
    out = tmp_path / "out"
    assert run("radius", FIXTURES / "radius.cfg", out) == 0
    payload = json.loads((out / "radius.json").read_text())
    assert set(payload) == {"chi", "n", "resamples", "profile_quantile",
                            "delta_hat", "gram_bound", "seed"}
    assert payload["delta_hat"] > 0
    assert payload["n"] == 8
    assert 0 <= payload["gram_bound"] < 1
    assert payload["delta_hat"] == pytest.approx(
        (payload["profile_quantile"] / 2.0) ** 0.5, rel=1e-12)


def test_radius_seed_override_changes_result(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run("radius", FIXTURES / "radius.cfg", out1)
    run("radius", FIXTURES / "radius.cfg", out2, seed=8)
    a = json.loads((out1 / "radius.json").read_text())
    b = json.loads((out2 / "radius.json").read_text())
    assert a["seed"] == 7 and b["seed"] == 8
    assert a["delta_hat"] != b["delta_hat"]


def test_simulate_output(tmp_path):
    out = tmp_path / "out"
    assert run("simulate", FIXTURES / "simulate.cfg", out) == 0
    lines = (out / "shift.csv").read_text().splitlines()
    assert lines[0] == "delta,mean_objective,std_err,p10_objective,concave_certificate"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 5
        assert cells[4] in ("true", "false")
        float(cells[1]), float(cells[2]), float(cells[3])


def test_simulate_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run("simulate", FIXTURES / "simulate.cfg", out1)
    run("simulate", FIXTURES / "simulate.cfg", out2)
    assert read_all(out1) == read_all(out2)


def test_validate_passes_and_prints_table(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("validate", FIXTURES / "validate.cfg", out) == 0
    text = capsys.readouterr().out
    assert "pass" in text
    rows = json.loads((out / "validation.json").read_text())
    assert rows
    verdicts = [r["pass"] for r in rows if r["pass"] is not None]
    assert verdicts and all(verdicts)


def test_validate_failure_exit_code(tmp_path):
    cfg = tmp_path / "strict.cfg"
    base = (FIXTURES / "validate.cfg").read_text()
    cfg.write_text(base.replace("validate.tol = 1e-4", "validate.tol = 1e-16"))
    for name in ("buy.csv", "sell.csv"):
        (tmp_path / name).write_bytes((FIXTURES / name).read_bytes())
    assert run("validate", cfg, tmp_path / "out") == 5


def test_missing_config_is_config_error(tmp_path, capsys):
    assert run("solve", tmp_path / "nope.cfg", tmp_path / "out") == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("samples.buy = buy.csv\nsamples.sell = sell.csv\nmodel.rho = 1\n")
    assert run("solve", cfg, tmp_path / "out") == 2


def test_duplicate_key_rejected(tmp_path):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("seed = 1\nseed = 2\n")
    assert run("solve", cfg, tmp_path / "out") == 2


def test_unequal_sides_fail_radius(tmp_path):
    (tmp_path / "buy.csv").write_text("0.5\n0.7\n0.9\n")
    (tmp_path / "sell.csv").write_text("0.4\n0.8\n")
    cfg = tmp_path / "r.cfg"
    cfg.write_text("samples.buy = buy.csv\nsamples.sell = sell.csv\nradius.chi = 0.1\n")
    assert run("radius", cfg, tmp_path / "out") == 3


def test_degenerate_policy_exit_code(tmp_path):
    cfg = tmp_path / "deg.cfg"
    cfg.write_text(
        "samples.buy = buy.csv\n"
        "samples.sell = sell.csv\n"
        "model.S = 5.0\n"
        "model.Q = 1000.0\n"
        "model.eta = 1e6\n"
        "model.gamma = 1.0\n"
        "model.f_plus = constant(0.01)\n"
        "model.f_minus = constant(0.01)\n"
        "model.h_plus = constant(0.01)\n"
        "model.h_minus = constant(0.01)\n"
        "domain.eps_max = 0.5\n"
        "domain.grid_n = 33\n"
        "radius.delta = 0.01\n")
    for name in ("buy.csv", "sell.csv"):
        (tmp_path / name).write_bytes((FIXTURES / name).read_bytes())
    assert run("solve", cfg, tmp_path / "out") == 4


def test_config_comments_and_relative_paths():
    cfg = parse_config(FIXTURES / "solve.cfg")
    buy, sell = cfg.require_samples()
    assert buy == FIXTURES / "buy.csv"
    assert sell == FIXTURES / "sell.csv"
    assert cfg.delta == 0.02
    assert cfg.seed == 7


def test_config_defaults():
    cfg = parse_config(FIXTURES / "radius.cfg")
    assert cfg.resamples == 200
    assert cfg.episodes == 10000
    assert cfg.validate_tol == 1e-4
    assert cfg.shift.sd_scale_plus == 1.0
    assert cfg.out_dir == FIXTURES / "out"


def test_config_rejects_delta_and_chi_together(tmp_path):
    cfg = tmp_path / "both.cfg"
    cfg.write_text("radius.delta = 0.1\nradius.chi = 0.1\n")
    with pytest.raises(ConfigError):
        parse_config(cfg)


def test_config_rejects_partial_model(tmp_path):
    cfg = tmp_path / "partial.cfg"
    cfg.write_text("model.S = 5.0\nmodel.Q = 1.0\n")
    with pytest.raises(ConfigError):
        parse_config(cfg)


MODEL_BLOCK = "".join(line + "\n" for line in (FIXTURES / "solve.cfg").read_text().splitlines()
                      if line.startswith("model."))


@pytest.mark.parametrize("text, key", [
    ("radius.delta = blue\n", "radius.delta"),
    (MODEL_BLOCK + "domain.grid_n = 0\n", "grid_n"),
    ("simulate.deltas = nan, 0.01\n", "simulate.deltas"),
    ("validate.deltas = inf\n", "validate.deltas"),
], ids=["radius.delta", "domain.grid_n", "simulate.deltas", "validate.deltas"])
def test_config_rejects_bad_number(tmp_path, text, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=key):
        parse_config(cfg)


def test_negative_seed_override_is_config_error(tmp_path, capsys):
    out = tmp_path / "out"
    assert run("solve", FIXTURES / "solve.cfg", out, seed=-1) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_config_zero_sd_scale_survives(tmp_path):
    # explicit zero must not fall back to the default of 1.0
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("simulate.shift_sd_scale_plus = 0.0\n")
    assert parse_config(cfg).shift.sd_scale_plus == 0.0


def test_config_reports_line_numbers(tmp_path):
    cfg = tmp_path / "syntax.cfg"
    cfg.write_text("seed = 1\nthis line has no equals sign\n")
    with pytest.raises(ConfigError, match="2"):
        parse_config(cfg)
