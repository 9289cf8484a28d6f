"""Command line front end: solve, radius, simulate, validate.

main runs the steps the four commands share: it reads one flat config
file and both sample files, creates the output directory, runs the
command, which writes its own outputs atomically there, and on exit 0
or 5 drops a manifest echoing the resolved configuration, so a rerun
with the same inputs is byte-identical.

Exit codes: 0 success, 2 configuration problem (the message names the key
or the file and line), 3 solver failure, 4 degenerate policy, 5 validation failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from collections.abc import Iterable
from pathlib import Path

from . import __version__
from .config import ConfigError, RunConfig, _keyed, parse_config
from .moments import SampleSet, empirical_moments, read_sample_csv
from .policy import DegeneratePolicyError, SolverError, build_policy, solve_inner
from .profile import gram_bound_check, select_radius
from .simulator import shift_experiment
from .validation import format_table, run_validation


def _atomic_write(path: Path, data: str | Iterable[str]) -> None:
    """Write data, one string or an iterable of chunks, to path in an existing directory."""
    # a unique temp file beside the target: runs sharing the directory
    # never write the same one, and os.replace stays on one file system
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            # mkstemp makes the file private; give it the mode open() gives
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.writelines([data] if isinstance(data, str) else data)
        os.replace(tmp, path)
    finally:
        Path(tmp).unlink(missing_ok=True)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _make_out_dir(path: Path, key: str) -> None:
    """Create the output directory up front, so a path that cannot hold
    the outputs fails before any work, naming the key that set it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{key}: cannot create output directory {path}: {exc.strerror}") from exc
    if not os.access(path, os.W_OK | os.X_OK):
        raise ConfigError(f"{key}: output directory {path} is not writable")


def _load_samples(cfg: RunConfig) -> tuple[SampleSet, SampleSet]:
    samples = []
    for side, path in zip(("buy", "sell"), cfg.require_samples()):
        try:
            samples.append(read_sample_csv(path, side))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"samples.{side}: {exc}") from exc
    return samples[0], samples[1]


# a broken sample rule of the radius profile names both sample keys
_SAMPLES = "samples.buy, samples.sell: "


def _select_radius(cfg: RunConfig, samples):
    # chi and resamples were checked under their own keys when the config was parsed
    return _keyed(_SAMPLES, select_radius, *samples, cfg.chi, resamples=cfg.resamples, rng_seed=cfg.seed)


def _resolve_budget(cfg: RunConfig, samples) -> float:
    """Solver budget (squared-radius units). A confidence level chi picks
    the radius delta_hat first; squaring converts it to the budget."""
    if cfg.delta is not None:
        return cfg.delta
    if cfg.chi is None:
        raise ConfigError("give one of radius.delta or radius.chi")
    return _select_radius(cfg, samples).delta_hat ** 2


def cmd_solve(cfg: RunConfig, samples) -> int:
    model, domain = cfg.require_model()
    summaries = (empirical_moments(samples[0]), empirical_moments(samples[1]))
    delta = _resolve_budget(cfg, samples)
    solution = solve_inner(model, domain, summaries, delta)
    policy = build_policy(model, domain, solution)

    # Python floats repr as plain round-trip numbers; numpy scalars would
    # write np.float64(...). Each node is formatted once, so per line only
    # the density goes through repr. The file is written one grid row at a
    # time: no copy of the whole text (several MB at the default grid) is built.
    nodes = domain.axis_nodes.tolist()
    columns = [f",{y!r}," for y in nodes]

    def policy_rows():
        yield "eps_plus,eps_minus,density\n"
        for x, row in zip(map(repr, nodes), policy.density):
            yield "".join([f"{x}{y}{v!r}\n" for y, v in zip(columns, row.tolist())])

    _atomic_write(cfg.out_dir / "policy.csv", policy_rows())

    summary = {
        "alpha_star": {"plus": solution.alpha_star_plus, "minus": solution.alpha_star_minus},
        "beta_star": {"plus": solution.beta_star_plus, "minus": solution.beta_star_minus},
        "objective": solution.objective,
        "delta": delta,
        "concave_certificate": solution.concave_certificate,
        "optimality_gap": solution.optimality_gap,
        "eps_max": domain.eps_max,
        "grid_n": domain.grid_n,
    }
    _atomic_write(cfg.out_dir / "solution.json", _json_dumps(summary))
    print(f"solve: objective {solution.objective!r} at delta {delta!r} -> {cfg.out_dir}")
    return 0


def cmd_radius(cfg: RunConfig, samples) -> int:
    if cfg.chi is None:
        raise ConfigError("radius command requires radius.chi")
    selection = _select_radius(cfg, samples)
    payload = {
        "chi": cfg.chi,
        "n": samples[0].n,
        "resamples": cfg.resamples,
        "profile_quantile": selection.profile_quantile,
        "delta_hat": selection.delta_hat,
        "gram_bound": selection.gram_bound,
        "seed": cfg.seed,
    }
    _atomic_write(cfg.out_dir / "radius.json", _json_dumps(payload))
    print(f"radius: delta_hat {selection.delta_hat!r} at chi {cfg.chi!r} -> {cfg.out_dir}")
    return 0


def cmd_simulate(cfg: RunConfig, samples) -> int:
    rows = shift_experiment(samples, *cfg.require_model(), deltas=cfg.sim_deltas, shift=cfg.shift,
                            episodes=cfg.episodes, rng_seed=cfg.seed)
    lines = ["delta,mean_objective,std_err,p10_objective,concave_certificate"]
    for row in rows:
        cert = "true" if row.concave_certificate else "false"
        lines.append(
            f"{row.delta!r},{row.mean_objective!r},{row.std_err!r},{row.p10_objective!r},{cert}"
        )
    _atomic_write(cfg.out_dir / "shift.csv", "\n".join(lines) + "\n")
    print(f"simulate: {len(rows)} radii x {cfg.episodes} episodes -> {cfg.out_dir}")
    return 0


def cmd_validate(cfg: RunConfig, samples) -> int:
    _keyed(_SAMPLES, gram_bound_check, (empirical_moments(samples[0]), empirical_moments(samples[1])))
    rows = run_validation(samples[0], samples[1], deltas=cfg.validate_deltas, tol=cfg.validate_tol)
    _atomic_write(cfg.out_dir / "validation.json", _json_dumps([r.as_dict() for r in rows]))
    print(format_table(rows))
    failures = [r for r in rows if r.passed is False]
    if failures:
        print(f"validate: {len(failures)} check(s) failed", file=sys.stderr)
        return 5
    print(f"validate: all {sum(1 for r in rows if r.passed is not None)} checks passed")
    return 0


_COMMANDS = {"solve": cmd_solve, "radius": cmd_radius, "simulate": cmd_simulate, "validate": cmd_validate}


# built once at import, not on every main call
_PARSER = argparse.ArgumentParser(
    prog="robustmm", description="Wasserstein-robust market making: solve, calibrate, simulate, validate.")
_SUB = _PARSER.add_subparsers(dest="command", required=True)
for _name, _help in (
    ("solve", "solve the robust inner problem and write the quoting policy"),
    ("radius", "pick the transport radius from data at confidence 1 - chi"),
    ("simulate", "run the shift experiment across radii"),
    ("validate", "compare closed forms against the transport oracle"),
):
    _p = _SUB.add_parser(_name, help=_help)
    _p.add_argument("--config", required=True, help="path to a key = value config file")
    _p.add_argument("--out", default=None, help="output directory (overrides output.dir)")
    _p.add_argument("--seed", type=int, default=None, help="seed override")


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        cfg = parse_config(args.config).with_overrides(args.out, args.seed)
        _make_out_dir(cfg.out_dir, "output.dir" if args.out is None else "--out")
        code = _COMMANDS[args.command](cfg, _load_samples(cfg))
        # last, after the command's own files, and only on exit 0 or 5
        manifest = {"command": args.command, "version": __version__, "seed": cfg.seed,
                    "config": dict(sorted(cfg.raw.items()))}
        _atomic_write(cfg.out_dir / "manifest.json", _json_dumps(manifest))
        return code
    except ConfigError as exc:  # a ValueError too, so it is caught first
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, ValueError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except DegeneratePolicyError as exc:
        print(f"degenerate policy: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
