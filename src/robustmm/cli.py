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


# grid rows of policy.csv formatted at a time: buffers of a few hundred kB at grid_n 257
_BLOCK_ROWS = 4
# a decision this close to its boundary (units of the 17th digit; errors ~1e-14) goes to repr
_MARGIN = 1e-6
# 10^p for p <= 20 is an exact double; Dekker's split of it into 26-bit halves
_P10 = 10.0 ** np.arange(21)
_P10_HI = _P10 * 134217729.0 - (_P10 * 134217729.0 - _P10)
_P10_LO = _P10 - _P10_HI
_P10_INT = 10 ** np.arange(19, dtype=np.int64)
# group k is the integer or fraction part // _SHIFT[k], less _CARRY[k] times group k - 1
_SHIFT = [10**11, 10**7, 10**3, 1, 10**16, 10**12, 10**8, 10**4, 1]
_CARRY = np.array([10**4, 10**4, 10**3, 0, 10**4, 10**4, 10**4, 10**4], dtype=np.int64)[:, None]


@functools.cache
def _text_tables() -> tuple[np.ndarray, np.ndarray]:
    """Text tables, built on first use: a value is nine 4-byte groups of digits (15 integer
    digits, '.', 20 fraction digits), four zero-padded digits at k < 10000, three and '.'
    above; keep[17 p + j] NULs all but max(17 - p, 1) integer digits and the last j of 17."""
    k = np.arange(11000, dtype=np.int16)
    digits = (np.stack([k // 1000, k // 100, k // 10, k], axis=1) % 10 + ord("0")).astype(np.uint8)
    digits[10000:] = np.column_stack([digits[10000:, 1:], np.full(1000, ord("."), np.uint8)])
    p, j, col = np.arange(21)[:, None, None], np.arange(17)[None, :, None], np.arange(36)
    keep = (col >= 15 - np.maximum(17 - p, 1)) & (col <= 15) | (col >= 36 - p) & (col < 36 - np.minimum(j, p - 1))
    return digits.view(np.uint32).ravel(), (keep * np.uint8(255)).reshape(-1, 36).view(np.uint32)


def _shortest_digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """repr's digits, the shortest decimal that reads back to the same double
    and of those the nearest (Steele and White 1990), as best 10^-p whose last
    dropped of 17 digits are zeros; and the indices of values left to repr.

    For x in [1e-4, 1e15), Dekker's product gives y = x 10^p exactly, with p =
    16 - floor(log10 x), as a 17-digit integer N plus f. A decimal within w of
    y, half the gap to x's neighbours, reads back to x: the largest j at which
    the multiple of 10^j nearest y is that close gives the digits. Powers of two
    (lower gap half the upper), exact ties and decisions within _MARGIN go to repr.
    """
    ok = (values >= 1e-4) & (values < 1e15)
    x = np.where(ok, values, 1.5)
    m, e = np.frexp(x)
    p = 16 - np.floor(np.log10(x)).astype(np.intp)
    w = np.ldexp(_P10[p], e - 54)
    hi = x * _P10[p]
    xh = x * 134217729.0
    xh -= xh - x
    x -= xh
    f = ((xh * _P10_HI[p] - hi) + xh * _P10_LO[p] + x * _P10_HI[p]) + x * _P10_LO[p]
    ok &= (m != 0.5) & (hi > 1e16) & (hi < 1e17)
    n17 = np.where(ok, hi, 2e16).astype(np.int64) + np.rint(f).astype(np.int64)
    f -= np.rint(f)
    # the multiple of 10 nearest y; an exact tie between two is left to repr
    r = n17 % 10
    dist = np.minimum(np.abs(r + f), 10 - (r + f))
    one = dist < w
    near = np.abs(dist - w) <= _MARGIN
    tie = np.where(one, (r == 5) & (f == 0), np.abs(f) == 0.5)
    best = np.where(one & (10 - 2 * r < 2 * f), n17 - r + 10, n17 - r * one)
    # within w < 12 of y lies at most one multiple of 100: drop all its trailing zeros
    c = (n17 + 50) // 100 * 100
    dist = np.abs((c - n17) - f)
    two = ok & (dist < w)
    near |= np.abs(dist - w) <= _MARGIN
    np.copyto(best, c, where=two)
    dropped = one + two.astype(np.intp)
    dropped[two] += (c[two, None] // 100 % _P10_INT[1:15] == 0).sum(axis=1)
    slow = np.flatnonzero(~ok | near | (tie & ~two))
    best[slow] = 10**16
    return best, p, dropped, slow


def _format_floats(values: np.ndarray, out: np.ndarray) -> int:
    """Write repr of each value into a NUL-padded row of out, (n, 36) uint8; return how many went to repr."""
    best, p, dropped, slow = _shortest_digits(values)
    whole, frac = np.divmod(best, _P10_INT[np.minimum(p, 18)])
    groups = np.empty((9, best.size), np.int64)
    for row, shift in enumerate(_SHIFT):
        np.floor_divide(whole if row < 4 else frac, shift, out=groups[row])
    groups[1:] -= groups[:-1] * _CARRY
    groups[3] += 10000
    digits, keep = _text_tables()
    np.bitwise_and(np.take(digits, groups).T, np.take(keep, 17 * p + dropped, axis=0), out=out.view(np.uint32))
    for i in slow:
        out[i] = np.frombuffer(repr(float(values[i])).encode().ljust(36, b"\0"), np.uint8)
    return slow.size


def _policy_csv(nodes: np.ndarray, density: np.ndarray) -> Iterator[bytes]:
    """policy.csv in bytes: a header, then x,y,density lines, each field exactly repr of its float."""
    names = [repr(v).encode() for v in nodes.tolist()]
    width = max(map(len, names))
    names = np.frombuffer(b"".join(s.ljust(width, b"\0") for s in names), np.uint8).reshape(-1, width)
    n = len(names)
    start = -(-(2 * width + 2) // 4) * 4  # the value field is read as uint32 groups
    text = bytearray(_BLOCK_ROWS * n * (start + 40))
    lines = np.frombuffer(text, np.uint8).reshape(_BLOCK_ROWS, n, start + 40)
    lines[..., width] = lines[..., 2 * width + 1] = ord(",")
    lines[..., width + 1:2 * width + 1] = names
    lines[..., start + 36] = ord("\n")
    yield b"eps_plus,eps_minus,density\n"
    for i in range(0, n, _BLOCK_ROWS):
        rows = density[i:i + _BLOCK_ROWS]
        block = lines[:len(rows)]
        block[..., :width] = names[i:i + len(rows), None]
        _format_floats(rows.ravel(), block[..., start:start + 36].reshape(-1, 36))
        yield (text if len(rows) == _BLOCK_ROWS else text[:block.nbytes]).translate(None, b"\0")


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
    # every field is repr of its float, the densities formatted in numpy a block of rows at a time
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
