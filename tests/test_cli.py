import json
import os
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import robustmm.validation as validation
from robustmm import SpreadDomain, __version__, build_policy, constant, empirical_moments, read_sample_csv, solve_inner
from robustmm.cli import _atomic_write, main
from robustmm.config import _KNOWN_KEYS, _SCALAR_KEYS, ConfigError, parse_config

from helpers import worst_case_objective

FIXTURES = Path(__file__).parent / "fixtures"


def run(command, cfg, out, seed=None):
    argv = [command, "--config", str(cfg), "--out", str(out)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    return main(argv)


def read_all(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def assert_manifest(out: Path, command: str, cfg: Path, seed: int) -> None:
    manifest = json.loads((out / "manifest.json").read_text())
    raw = parse_config(cfg).raw
    assert manifest == {"command": command, "version": __version__, "seed": seed, "config": raw}
    assert list(manifest["config"]) == sorted(raw)


def test_solve_writes_policy_and_summary(tmp_path):
    out = tmp_path / "out"
    assert run("solve", FIXTURES / "solve.cfg", out) == 0
    summary = json.loads((out / "solution.json").read_text())
    assert set(summary) == {"alpha_star", "beta_star", "objective", "delta",
                            "concave_certificate", "optimality_gap", "eps_max", "grid_n"}
    assert summary["delta"] == 0.02
    assert summary["concave_certificate"] is True
    header = (out / "policy.csv").read_text().splitlines()[0]
    assert header == "eps_plus,eps_minus,density"
    text = (out / "policy.csv").read_text()
    assert text.endswith("\n") and not text.endswith("\n\n")
    rows = text.splitlines()[1:]
    assert len(rows) == 33 * 33
    table = np.loadtxt(out / "policy.csv", delimiter=",", skiprows=1)
    cfg = parse_config(FIXTURES / "solve.cfg")
    model, domain = cfg.require_model()
    buy, sell = cfg.require_samples()
    summaries = (empirical_moments(read_sample_csv(buy, "buy")),
                 empirical_moments(read_sample_csv(sell, "sell")))
    solution = solve_inner(model, domain, summaries, cfg.delta)
    assert summary["optimality_gap"] == solution.optimality_gap <= 1e-8 * (1.0 + abs(summary["objective"]))
    policy = build_policy(model, domain, solution)
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


def test_one_parser_serves_every_call(tmp_path, capsys):
    # the parser is built once, at import: calls with different commands in one
    # process each see only their own options, and a bad one still exits 2
    assert run("solve", FIXTURES / "solve.cfg", tmp_path / "a") == 0
    assert run("radius", FIXTURES / "radius.cfg", tmp_path / "radius", seed=3) == 0
    assert json.loads((tmp_path / "radius" / "manifest.json").read_text())["seed"] == 3
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(FIXTURES / "solve.cfg"), "--seed", "x"])
    assert exc.value.code == 2
    assert "--seed: invalid int value" in capsys.readouterr().err
    assert run("solve", FIXTURES / "solve.cfg", tmp_path / "b") == 0
    assert json.loads((tmp_path / "b" / "manifest.json").read_text())["seed"] == 7
    assert read_all(tmp_path / "a") == read_all(tmp_path / "b")


def test_default_grid_policy_bytes(tmp_path):
    # at the default grid_n = 257, policy.csv is exactly '%.16e' of each
    # field of each node pair and its density, written from the solve's own table
    text = "".join(line + "\n" for line in (FIXTURES / "solve.cfg").read_text().splitlines()
                   if not line.startswith("domain."))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    for name in ("buy.csv", "sell.csv"):
        (tmp_path / name).write_bytes((FIXTURES / name).read_bytes())
    assert run("solve", cfg_path, tmp_path / "out") == 0
    cfg = parse_config(cfg_path)
    model, domain = cfg.require_model()
    assert domain.grid_n == 257
    buy, sell = cfg.require_samples()
    summaries = (empirical_moments(read_sample_csv(buy, "buy")),
                 empirical_moments(read_sample_csv(sell, "sell")))
    policy = build_policy(model, domain, solve_inner(model, domain, summaries, cfg.delta))
    nodes = domain.axis_nodes.tolist()
    want = "eps_plus,eps_minus,density\n" + "".join(
        "%.16e,%.16e,%.16e\n" % (x, y, v)
        for x, row in zip(nodes, policy.density.tolist()) for y, v in zip(nodes, row))
    assert (tmp_path / "out" / "policy.csv").read_bytes() == want.encode()


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
    assert_manifest(out, "radius", FIXTURES / "radius.cfg", 7)


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
    # pinned to the digit: any change to the episode draw stream shows here
    assert (out / "shift.csv").read_text() == (
        "delta,mean_objective,std_err,p10_objective,concave_certificate\n"
        "0.0,-0.6231632650322682,0.039179580148568635,-2.9476363988740255,true\n"
        "0.02,-0.5761065853884975,0.038665769517357715,-2.8440719789295605,true\n"
    )


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
    # the moment rows carry their oracle bracket's bound, the others null
    for r in rows:
        bracket = r["check"].startswith(("mean_", "beta_"))
        assert (r["oracle_bound"] is not None) == bracket, r["check"]


def test_validate_failure_exit_code(tmp_path):
    cfg = tmp_path / "strict.cfg"
    base = (FIXTURES / "validate.cfg").read_text()
    cfg.write_text(base.replace("validate.tol = 1e-4", "validate.tol = 1e-16"))
    for name in ("buy.csv", "sell.csv"):
        (tmp_path / name).write_bytes((FIXTURES / name).read_bytes())
    assert run("validate", cfg, tmp_path / "out", seed=11) == 5
    # exit 5 writes the manifest beside the command's own file
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["manifest.json", "validation.json"]
    assert_manifest(tmp_path / "out", "validate", cfg, 11)


def test_validate_catches_an_error_inside_tol(tmp_path, monkeypatch):
    # an upper envelope 1e-6 relative too high is inside validate.tol = 1e-4
    # but outside the oracle bracket, so the gate fails
    exact = validation.theorem_beta_envelope

    def planted(summary, delta, alpha):
        return exact(summary, delta, alpha) * (1.0 + 1e-6)

    monkeypatch.setattr(validation, "theorem_beta_envelope", planted)
    out = tmp_path / "out"
    assert run("validate", FIXTURES / "validate.cfg", out) == 5
    rows = {r["check"]: r for r in json.loads((out / "validation.json").read_text())}
    row = rows["beta_upper[buy,delta=0.01,t=0]"]
    assert row["rel_err"] <= 1e-4 and row["pass"] is False
    assert row["analytic"] > row["oracle_bound"]
    assert all(r["pass"] for name, r in rows.items() if name.startswith("mean_"))


def test_missing_config_is_config_error(tmp_path, capsys):
    assert run("solve", tmp_path / "nope.cfg", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"config error: {tmp_path / 'nope.cfg'}: cannot read (No such file or directory)\n"


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("samples.buy = buy.csv\nsamples.sell = sell.csv\nmodel.rho = 1\n")
    assert run("solve", cfg, tmp_path / "out") == 2


def test_duplicate_key_rejected(tmp_path):
    cfg = tmp_path / "dup.cfg"
    cfg.write_text("seed = 1\nseed = 2\n")
    assert run("solve", cfg, tmp_path / "out") == 2


def test_unequal_sides_fail_radius(tmp_path, capsys):
    (tmp_path / "buy.csv").write_text("0.5\n0.7\n0.9\n")
    (tmp_path / "sell.csv").write_text("0.4\n0.8\n")
    cfg = tmp_path / "r.cfg"
    cfg.write_text("samples.buy = buy.csv\nsamples.sell = sell.csv\nradius.chi = 0.1\n")
    assert run("radius", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "samples.buy" in err and "sample sizes must match" in err


@pytest.mark.parametrize("command, buy, sell, text", [
    ("radius", "0.5\n", "0.4\n", "at least two samples"),
    ("radius", "0.5\n0.5\n0.5\n", "0.4\n0.4\n0.4\n", "degenerate empirical covariance"),
    ("solve", "0.5\n0.5\n0.5\n", "0.4\n0.4\n0.4\n", "degenerate empirical covariance"),
    ("validate", "0.5\n0.5\n0.5\n", "0.4\n0.4\n0.4\n", "degenerate empirical covariance"),
    # one constant side leaves Sigma_n nonsingular but puts the gram statistic at 1
    ("radius", "0.7\n0.7\n0.7\n", "0.4\n0.9\n1.1\n", "gram bound violated"),
    ("validate", "0.7\n0.7\n0.7\n", "0.4\n0.9\n1.1\n", "gram bound violated"),
    # here rounding puts the gram statistic 2e-16 below 1
    ("radius", "0.09\n0.09\n0.09\n", "0.4\n0.9\n1.1\n", "gram bound violated"),
    ("validate", "0.09\n0.09\n0.09\n", "0.4\n0.9\n1.1\n", "gram bound violated"),
], ids=["radius-single", "radius-constant", "solve-chi-constant", "validate-constant",
        "radius-one-constant-side", "validate-one-constant-side",
        "radius-one-constant-side-rounded", "validate-one-constant-side-rounded"])
def test_sample_rules_name_their_keys(tmp_path, capsys, command, buy, sell, text):
    (tmp_path / "buy.csv").write_text(buy)
    (tmp_path / "sell.csv").write_text(sell)
    cfg = tmp_path / "r.cfg"
    cfg.write_text(MODEL_BLOCK + "samples.buy = buy.csv\nsamples.sell = sell.csv\n"
                   "radius.chi = 0.1\nradius.resamples = 100\n")
    assert run(command, cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "samples.buy" in err and "samples.sell" in err and text in err


def test_unwritable_output_dir_names_its_key(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("a file, not a directory\n")
    assert run("solve", FIXTURES / "solve.cfg", blocker) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--out" in err and str(blocker) in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("output.dir = taken/sub\n")
    assert main(["solve", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "output.dir" in err and str(blocker / "sub") in err


def test_non_utf8_config_names_its_path(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"seed = 1\n\xff\xfe = 1\n")
    assert run("solve", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(cfg) in err and "UTF-8" in err


@pytest.mark.parametrize("old, new, out, key", [
    ("output.dir = out", "output.dir =", None, "output.dir"),
    ("samples.buy = buy.csv", "samples.buy =", None, "samples.buy"),
    ("samples.sell = sell.csv", "samples.sell =", None, "samples.sell"),
    (None, None, "", "--out"),
], ids=["output.dir", "samples.buy", "samples.sell", "--out"])
def test_empty_path_names_its_key(tmp_path, monkeypatch, capsys, old, new, out, key):
    # an empty path is never the config's directory or the current one:
    # the run stops before any work and writes nothing
    home, cwd = tmp_path / "cfg", tmp_path / "cwd"
    home.mkdir()
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    text = (FIXTURES / "solve.cfg").read_text() + "output.dir = out\n"
    if old is not None:
        assert old in text
        text = text.replace(old, new)
    (home / "run.cfg").write_text(text)
    for name in ("buy.csv", "sell.csv"):
        (home / name).write_bytes((FIXTURES / name).read_bytes())
    assert main(["solve", "--config", str(home / "run.cfg")] + ([] if out is None else ["--out", out])) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{key}: empty path" in err
    assert sorted(p.name for p in home.iterdir()) == ["buy.csv", "run.cfg", "sell.csv"]
    assert list(cwd.iterdir()) == []


def test_byte_order_mark_is_dropped(tmp_path):
    # files saved with a UTF-8 byte-order mark give the plain files' outputs
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        (tmp_path / name).mkdir()
        for file in ("solve.cfg", "buy.csv"):
            (tmp_path / name / file).write_bytes(bom + (FIXTURES / file).read_bytes())
        (tmp_path / name / "sell.csv").write_bytes((FIXTURES / "sell.csv").read_bytes())
        assert run("solve", tmp_path / name / "solve.cfg", tmp_path / name / "out") == 0
    assert read_all(tmp_path / "bom" / "out") == read_all(tmp_path / "plain" / "out")
    # a bad byte after the mark is reported at its offset in the file
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"\xef\xbb\xbfseed = 1\n\xff = 1\n")
    with pytest.raises(ConfigError, match="at byte 12"):
        parse_config(bad)


def test_readme_config_table_matches_the_parser():
    # every key the parser knows has a row of its own, and a table-driven
    # key's default reads as the parser's default
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Config keys", 1)[1].split("\n\n", 2)[1]
    defaults = {}
    for row in table.splitlines()[2:]:
        keys, default = row.split("|")[1:3]
        for key in re.findall(r"`([^`]+)`", keys):
            defaults[key] = default.strip().strip("`")
    assert set(defaults) == _KNOWN_KEYS
    for key, (_, _, default, _, _) in _SCALAR_KEYS.items():
        if default is None:
            assert defaults[key] == "", key
        elif isinstance(default, tuple):
            assert tuple(float(tok) for tok in defaults[key].split(",")) == default, key
        else:
            assert type(default)(defaults[key]) == default, key


def test_removed_quadrature_key_is_unknown(tmp_path, capsys):
    cfg = tmp_path / "quad.cfg"
    cfg.write_text(MODEL_BLOCK + "domain.quadrature = trapezoid\n")
    assert run("solve", cfg, tmp_path / "out") == 2
    line = MODEL_BLOCK.count("\n") + 1
    assert f"{cfg}:{line}: unknown config key 'domain.quadrature'" in capsys.readouterr().err


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
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("delta, code", [("0.0", 0), ("0.02", 4)])
def test_huge_intensity_on_zero_samples(tmp_path, capsys, delta, code):
    # h+ = 1e80 on all-zero samples: at delta = 0 the means and variances are 0,
    # so h+ never enters the exponent and the solve must not square it; at 0.02
    # the adversary's means scale the fills by 1e80 and the mass itself underflows
    for name in ("buy.csv", "sell.csv"):
        (tmp_path / name).write_text("0.0\n0.0\n0.0\n0.0\n")
    cfg = tmp_path / "solve.cfg"
    cfg.write_text((FIXTURES / "solve.cfg").read_text()
                   .replace("model.h_plus = exp_decay(1.0, 1.2)", "model.h_plus = constant(1e80)")
                   .replace("radius.delta = 0.02", f"radius.delta = {delta}"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("solve", cfg, tmp_path / "out") == code
    if code == 4:
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "normalizer underflow" in err
        return
    parsed = parse_config(cfg)
    model, domain = parsed.require_model()
    summaries = tuple(empirical_moments(read_sample_csv(p, side))
                      for p, side in zip(parsed.require_samples(), ("buy", "sell")))
    flat = worst_case_objective(replace(model, h_plus=constant(0.0)), domain, summaries, 0.0, 0.0, 0.0)[0]
    got = json.loads((tmp_path / "out" / "solution.json").read_text())["objective"]
    assert got == pytest.approx(flat, rel=1e-14)


def test_overflowing_model_is_degenerate_without_warning(tmp_path, capsys):
    # Q = 1e200 overflows eta C^2 in the grid set-up; the run must reach
    # exit 4 with one message naming the cause, not a numpy warning
    cfg = tmp_path / "q.cfg"
    cfg.write_text((FIXTURES / "solve.cfg").read_text().replace("model.Q = 1.0", "model.Q = 1e200"))
    for name in ("buy.csv", "sell.csv"):
        (tmp_path / name).write_bytes((FIXTURES / name).read_bytes())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("solve", cfg, tmp_path / "out") == 4
    err = capsys.readouterr().err
    assert err.count("degenerate policy") == 1
    assert "zero mass" in err


def test_write_ignores_stale_temp_name(tmp_path):
    # a leftover <name>.tmp, here a directory, must not block the write
    out = tmp_path / "out"
    (out / "solution.json.tmp").mkdir(parents=True)
    assert run("solve", FIXTURES / "solve.cfg", out) == 0
    assert json.loads((out / "solution.json").read_text())["delta"] == 0.02
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "policy.csv", "solution.json", "solution.json.tmp"]
    probe = tmp_path / "probe.txt"
    probe.write_text("x")
    assert (out / "solution.json").stat().st_mode == probe.stat().st_mode


def test_streamed_write_is_atomic(tmp_path):
    # policy.csv is written as a stream of chunks, of bytes or of text (as
    # UTF-8); a stream that fails part way must leave the old file and no
    # temp file behind
    target = tmp_path / "policy.csv"
    for chunk in (str, str.encode):
        _atomic_write(target, iter([chunk("a,b\n"), chunk("1,\u00e9\n")]))
        assert target.read_bytes() == "a,b\n1,\u00e9\n".encode()

        def broken():
            yield chunk("partial\n")
            raise RuntimeError("stream failed")

        with pytest.raises(RuntimeError, match="stream failed"):
            _atomic_write(target, broken())
        assert target.read_bytes() == "a,b\n1,\u00e9\n".encode()
        assert [p.name for p in tmp_path.iterdir()] == ["policy.csv"]


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


def test_config_builds_the_default_domain(tmp_path, capsys):
    # with no domain keys, eps_max is 0.1 * S and the rest are SpreadDomain's
    # defaults; S = 0 makes that cap 0, a config error naming both keys
    text = "".join(line + "\n" for line in (FIXTURES / "solve.cfg").read_text().splitlines()
                   if not line.startswith("domain."))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert parse_config(cfg).require_model()[1] == SpreadDomain(eps_max=0.5)
    for name in ("buy.csv", "sell.csv"):
        (tmp_path / name).write_bytes((FIXTURES / name).read_bytes())
    cfg.write_text(text.replace("model.S = 5.0", "model.S = 0.0"))
    assert run("solve", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "domain.eps_max" in err and "model.S" in err


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
    (MODEL_BLOCK + "domain.grid_n = 4097\n", "domain.grid_n"),
    ("simulate.deltas = nan, 0.01\n", "simulate.deltas"),
    ("validate.deltas = inf\n", "validate.deltas"),
    ("validate.deltas = 0.01,,0.04,\n", "validate.deltas"),
    ("simulate.deltas = 0.0, \n", "simulate.deltas"),
    (MODEL_BLOCK.replace("h_plus = exp_decay(1.0, 1.2)", "h_plus = affine(0.1, -1.0)"), "model.h_plus"),
    (MODEL_BLOCK.replace("f_plus = constant(0.2)", "f_plus = exp_decay(1.0, -2000)"), "model.f_plus"),
    (MODEL_BLOCK.replace("h_minus = exp_decay(1.0, 1.2)", "h_minus = foo(1.0)"), "model.h_minus"),
    (MODEL_BLOCK.replace("gamma = 2.0", "gamma = 0"), "model.gamma"),
    ("radius.resamples = 100000000\n", "radius.resamples"),
    ("simulate.episodes = 1000000000\n", "simulate.episodes"),
    ("simulate.shift_sd_scale_plus = -1.0\n", "simulate.shift_sd_scale_plus must be nonnegative"),
], ids=["radius.delta", "domain.grid_n", "domain.grid_n-cap", "simulate.deltas", "validate.deltas",
        "validate.deltas-empty-entry", "simulate.deltas-empty-entry",
        "model.h_plus-negative", "model.f_plus-overflow", "model.h_minus-kind", "model.gamma",
        "radius.resamples-cap", "simulate.episodes-cap", "simulate.shift_sd_scale_plus-negative"])
def test_config_rejects_bad_number(tmp_path, text, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=key):
        parse_config(cfg)


_SAMPLE_KEYS = "samples.buy = buy.csv\nsamples.sell = sell.csv\n"


@pytest.mark.parametrize("command, text, key", [
    ("radius", _SAMPLE_KEYS, "radius.chi"),
    ("solve", MODEL_BLOCK + _SAMPLE_KEYS, "radius.chi"),
    ("solve", MODEL_BLOCK + "samples.sell = sell.csv\nradius.delta = 0.02\n", "samples.buy"),
    ("validate", "samples.buy = buy.csv\n", "samples.sell"),
    ("solve", _SAMPLE_KEYS + "radius.delta = 0.02\n", "model.S"),
    ("simulate", _SAMPLE_KEYS, "model.S"),
    ("radius", _SAMPLE_KEYS + "radius.chi = 0.1\nradius.resamples = 1.5\n", "radius.resamples"),
    ("validate", _SAMPLE_KEYS + "validate.deltas = 0.01, x\n", "validate.deltas"),
    ("validate", _SAMPLE_KEYS + "validate.tol = 0\n", "validate.tol"),
    ("validate", _SAMPLE_KEYS + "domain.eps_max = 0.8\n", "domain.eps_max"),
], ids=["radius-without-chi", "solve-without-budget", "no-buy-samples", "no-sell-samples",
        "solve-without-model", "simulate-without-model", "non-integer-resamples", "non-number-radius",
        "zero-tol", "domain-without-model"])
def test_missing_or_bad_key_exits_2_naming_it(tmp_path, capsys, command, text, key):
    for name in ("buy.csv", "sell.csv"):
        (tmp_path / name).write_bytes((FIXTURES / name).read_bytes())
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert run(command, cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ") and key in err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_read_only_output_dir_names_its_key(tmp_path, capsys, monkeypatch):
    # root may write to any directory, so the access check is made to deny it
    out = tmp_path / "locked"
    out.mkdir(mode=0o500)
    access = os.access
    monkeypatch.setattr("robustmm.cli.os.access", lambda path, mode: path != out and access(path, mode))
    assert run("solve", FIXTURES / "solve.cfg", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--out" in err and "not writable" in err
    assert list(out.iterdir()) == []


def test_non_utf8_sample_names_its_path_and_offset(tmp_path, capsys):
    # the bad byte sits past the first 8 KiB, where a streamed decoder
    # would report its position in a later chunk
    buy = tmp_path / "buy.csv"
    buy.write_bytes(b"value\n" + b"1.0\n" * 5000 + b"\xff\n")
    (tmp_path / "sell.csv").write_bytes((FIXTURES / "sell.csv").read_bytes())
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_SAMPLE_KEYS + "radius.chi = 0.1\n")
    assert run("radius", cfg, tmp_path / "out") == 2
    assert capsys.readouterr().err == (
        f"config error: samples.buy: {buy}: not UTF-8 text (invalid start byte at byte 20006)\n")


@pytest.mark.parametrize("flag", [True, False], ids=["--out", "output.dir"])
def test_unwritable_output_file_names_it_and_its_key(tmp_path, capsys, flag):
    # a directory where policy.csv goes makes the final rename fail; the run
    # exits 2 with one line naming the file and the key that set the directory
    out = tmp_path / "out"
    (out / "policy.csv").mkdir(parents=True)
    for name in ("buy.csv", "sell.csv"):
        (tmp_path / name).write_bytes((FIXTURES / name).read_bytes())
    cfg = tmp_path / "solve.cfg"
    cfg.write_text((FIXTURES / "solve.cfg").read_text() + ("" if flag else "output.dir = out\n"))
    assert main(["solve", "--config", str(cfg)] + (["--out", str(out)] if flag else [])) == 2
    err = capsys.readouterr().err
    key = "--out" if flag else "output.dir"
    assert err == f"config error: {key}: cannot write {out / 'policy.csv'} (Is a directory)\n"
    assert sorted(p.name for p in out.iterdir()) == ["policy.csv"]
    assert list((out / "policy.csv").iterdir()) == []


@pytest.mark.parametrize("side", ["config", "buy"])
def test_unreadable_input_file_names_its_path(tmp_path, capsys, monkeypatch, side):
    # root reads any file, so the read itself is made to fail; config and
    # sample files report it the same way, a sample under its key
    for name in ("buy.csv", "sell.csv"):
        (tmp_path / name).write_bytes((FIXTURES / name).read_bytes())
    cfg = tmp_path / "solve.cfg"
    cfg.write_text((FIXTURES / "solve.cfg").read_text())
    locked = cfg if side == "config" else tmp_path / "buy.csv"
    read_text = Path.read_text

    def denied(path, *args, **kwargs):
        if path == locked:
            raise PermissionError(13, "Permission denied", str(path))
        return read_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", denied)
    assert run("solve", cfg, tmp_path / "out") == 2
    prefix = "" if side == "config" else "samples.buy: "
    assert capsys.readouterr().err == f"config error: {prefix}{locked}: cannot read (Permission denied)\n"


def test_non_finite_sample_names_its_key(tmp_path, capsys):
    for name in ("buy.csv", "sell.csv"):
        (tmp_path / name).write_bytes((FIXTURES / name).read_bytes())
    with (tmp_path / "buy.csv").open("a") as fh:
        fh.write("nan\n")
    cfg = tmp_path / "solve.cfg"
    cfg.write_text((FIXTURES / "solve.cfg").read_text())
    assert run("solve", cfg, tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "samples.buy" in err and "finite" in err


_LEAK_GAMMA = [("model.gamma = 2.0", "model.gamma = 1e308"), ("domain.eps_max = 0.8", "domain.eps_max = 3.0")]


@pytest.mark.parametrize("command, edits, code, text", [
    ("solve", [("model.f_plus = constant(0.2)", "model.f_plus = exp_decay(1.0, -2000)")], 2, "model.f_plus"),
    ("solve", [("radius.delta = 0.02", "radius.delta = 1e300")], 3, "integrand overflow"),
    # finite log Z whose objective -gamma * Z overflows
    ("solve", _LEAK_GAMMA, 3, "integrand overflow"),
    ("simulate", _LEAK_GAMMA, 3, "integrand overflow"),
    # an intensity at the float limit overflows the evaluator's set-up
    ("solve", [("model.h_plus = exp_decay(1.0, 1.2)", "model.h_plus = constant(1e308)")], 3, "integrand overflow"),
    # a finite policy whose booked episodes overflow
    ("simulate", [("seed = 7", "seed = 7\nsimulate.shift_sd_scale_plus = 1e200")], 3,
     "episode objectives overflow"),
    # a shifted law whose atoms overflow, to inf and to nan (-inf + inf)
    ("simulate", [("seed = 7", "seed = 7\nsimulate.shift_sd_scale_plus = 1.5e308\nsimulate.shift_mean_plus = -1e308")],
     3, "episode objectives overflow"),
], ids=["curve-overflow", "radius-overflow", "objective-overflow", "objective-overflow-simulate",
        "intensity-overflow", "episode-overflow", "shift-overflow"])
def test_overflow_reports_one_line(tmp_path, capsys, command, edits, code, text):
    # no numpy overflow warning on the way: the one stderr line is the verdict
    for name in ("buy.csv", "sell.csv"):
        (tmp_path / name).write_bytes((FIXTURES / name).read_bytes())
    cfg_text = (FIXTURES / "solve.cfg").read_text()
    for old, new in edits:
        assert old in cfg_text
        cfg_text = cfg_text.replace(old, new)
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(cfg_text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(command, cfg, tmp_path / "out") == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and text in err
    assert not (tmp_path / "out" / "manifest.json").exists()


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
