"""Command line front end: solve, radius, simulate, validate.

main runs the steps the four commands share: it reads one flat config
file and both sample files, creates the output directory, runs the
command, which writes its own outputs atomically there, and on exit 0
or 5 drops a manifest echoing the resolved configuration, so a rerun
with the same inputs is byte-identical.

Exit codes: 0 success, 2 configuration problem or an output that cannot be
written (the message names the key, or the file and line), 3 solver failure,
4 degenerate policy, 5 validation failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, _keyed, parse_config
from .moments import SampleSet, empirical_moments, read_sample_csv
from .policy import DegeneratePolicyError, SolverError, build_policy, solve_inner
from .profile import gram_bound_check, select_radius
from .simulator import shift_experiment
from .validation import format_table, run_validation


class _WriteError(OSError):
    """An output file that could not be written; filename is the target's path."""


def _atomic_write(path: Path, data: str | bytes | Iterable[str | bytes]) -> None:
    """Write data, str or bytes or an iterable of such chunks (str as UTF-8), to
    path in an existing directory. An OSError on the way becomes a _WriteError naming path."""
    # a unique temp file beside the target: runs sharing the directory
    # never write the same one, and os.replace stays on one file system
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            # mkstemp makes the file private; give it the mode open() gives
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            for chunk in [data] if isinstance(data, (str, bytes)) else data:
                fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
        os.replace(tmp, path)
    except OSError as exc:
        raise _WriteError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        if tmp is not None:
            Path(tmp).unlink(missing_ok=True)


# grid rows of policy.csv formatted at a time: a buffer of about 70 kB at grid_n 257
_BLOCK_ROWS = 4
# a field '%.16e' % v is 22 bytes while v's exponent has two digits: x,y,density\n is 69 bytes
_FIELD = 22
_LINE = 3 * _FIELD + 3


@functools.cache
def _digit_tables() -> tuple[np.ndarray, ...]:
    """Tables built on first use: 10^p for p <= 22 (exact doubles) and Dekker's split of
    it into 26-bit halves; and 4-byte ASCII words, at k < 10000 the digits of k, at
    10000 + d "  d." for one digit d, at 10109 + e "e+ee" for an exponent |e| < 100."""
    p10 = 10.0 ** np.arange(23)
    p10_hi = p10 * 134217729.0 - (p10 * 134217729.0 - p10)
    k = np.arange(10000, dtype=np.int16)
    digits = np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10], axis=1).astype(np.uint8) + ord("0")
    rest = b"".join([*(b"  %d." % d for d in range(10)), *(b"e%+03d" % e for e in range(-99, 100))])
    words = np.concatenate([digits.ravel(), np.frombuffer(rest, np.uint8)]).view(np.uint32)
    return p10, p10_hi, p10 - p10_hi, words


def _exact_fields(values: np.ndarray, out: np.ndarray) -> int | None:
    """Write '%.16e' % v of each value into a row of out, (n, 22) uint8, and return how
    many went to '%.16e' itself; None, out part written, if some field is not 22 bytes.

    For x in [1e-6, 1e16), 10^p with p = 16 - floor(log10 x) is exact, and Dekker's
    product gives x 10^p exactly as hi + lo. hi >= 1e16 > 2^53 is an even integer, so
    N = hi + rint(lo) is the exact value rounded half to even, as '%.16e' rounds it,
    and its 17 digits are the field's. log10 only guesses p: the guess stands when the
    exact value is at least 1e16 and N below 10^17. +0.0 is written directly; any other
    value (out of range, a rejected guess, a carry to 10^17) goes to '%.16e' itself."""
    p10, p10_hi, p10_lo, words = _digit_tables()
    zero = values.view(np.int64) == 0
    ok = (values >= 1e-6) & (values < 1e16)
    x = np.where(ok, values, 1.0)
    p = np.minimum(16 - np.floor(np.log10(x)).astype(np.intp), 22)
    hi = x * p10[p]
    xh = x * 134217729.0
    xh -= xh - x
    x -= xh
    lo = ((xh * p10_hi[p] - hi) + xh * p10_lo[p] + x * p10_hi[p]) + x * p10_lo[p]
    n17 = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    ok &= ((hi > 1e16) | (hi == 1e16) & (lo >= 0)) & (n17 < 10**17)
    # words: "d." of the leading digit, four groups of four digits, "e+ee"; +0.0 reads N = 0, e = 0
    index = np.empty((6, values.size), np.intp)
    index[4] = np.where(ok, n17, 0)
    for row, shift in enumerate((10**16, 10**12, 10**8, 10**4)):
        np.floor_divide(index[4], shift, out=index[row])
    index[1:5] -= index[:4] * 10000
    index[0] += 10000
    index[5] = np.where(ok, 10109 + 16 - p, 10109)
    out[...] = np.take(words, index.T).view(np.uint8)[:, 2:]
    slow = np.flatnonzero(~(ok | zero))
    for i in slow.tolist():
        field = b"%.16e" % values[i]
        if len(field) != _FIELD:
            return None
        out[i] = np.frombuffer(field, np.uint8)
    return slow.size


def _policy_csv(nodes: np.ndarray, density: np.ndarray) -> Iterator[bytes]:
    """policy.csv in bytes: a header, then x,y,density lines, each field exactly '%.16e' of its float.
    A block whose fields are all 22 bytes is one uint8 buffer of 69-byte lines; any other
    block (an exponent of 100 or more, a subnormal) is written line by line."""
    n, xs = len(nodes), nodes.tolist()
    names = np.empty((n, _FIELD), np.uint8)
    narrow = _exact_fields(nodes, names) is not None
    lines = np.empty((_BLOCK_ROWS, n, _LINE), np.uint8)
    lines[..., _FIELD] = lines[..., 2 * _FIELD + 1] = ord(",")
    lines[..., _LINE - 1] = ord("\n")
    lines[..., _FIELD + 1:2 * _FIELD + 1] = names
    yield b"eps_plus,eps_minus,density\n"
    for i in range(0, n, _BLOCK_ROWS):
        rows = density[i:i + _BLOCK_ROWS]
        block = lines[:len(rows)]
        block[..., :_FIELD] = names[i:i + len(rows), None]
        fields = block[..., 2 * _FIELD + 2:-1].reshape(-1, _FIELD)
        if narrow and _exact_fields(rows.ravel(), fields) is not None:
            yield block.tobytes()
        else:
            yield b"".join(b"%.16e,%.16e,%.16e\n" % (x, y, v)
                           for x, row in zip(xs[i:i + len(rows)], rows.tolist()) for y, v in zip(xs, row))


def _json_dumps(obj) -> str:
    # no indent: json encodes indented output in pure Python, unindented in C
    return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


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
        except ValueError as exc:
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
    # each field is '%.16e' of its float, exact in 22 bytes, formatted in numpy a block of grid rows at a time
    _atomic_write(cfg.out_dir / "policy.csv", _policy_csv(domain.axis_nodes, policy.density))

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
    out_key = "output.dir" if args.out is None else "--out"

    try:
        cfg = parse_config(args.config).with_overrides(args.out, args.seed)
        _make_out_dir(cfg.out_dir, out_key)
        code = _COMMANDS[args.command](cfg, _load_samples(cfg))
        # last, after the command's own files, and only on exit 0 or 5
        manifest = {"command": args.command, "version": __version__, "seed": cfg.seed,
                    "config": dict(sorted(cfg.raw.items()))}
        _atomic_write(cfg.out_dir / "manifest.json", _json_dumps(manifest))
        return code
    except ConfigError as exc:  # a ValueError too, so it is caught first
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _WriteError as exc:
        print(f"config error: {out_key}: cannot write {exc.filename} ({exc.strerror})", file=sys.stderr)
        return 2
    except (SolverError, ValueError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except DegeneratePolicyError as exc:
        print(f"degenerate policy: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
