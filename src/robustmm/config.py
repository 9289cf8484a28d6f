"""Flat key = value run configuration.

Dotted keys group into blocks; values are numbers, paths, comma lists,
or function specs like exp_decay(2.0, 1.5). Exactly one of radius.delta
and radius.chi may be given. Sample paths and output.dir resolve relative
to the config file location; an empty path is an error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .functions import parse_function_spec
from .moments import check_radius, read_text_lines
from .policy import SpreadDomain, SpreadModel, validate_model_on_domain
from .profile import DEFAULT_RESAMPLES, check_chi, check_resamples
from .simulator import ShiftSpec, check_episodes
from .validation import DEFAULT_DELTAS, DEFAULT_TOL


class ConfigError(ValueError):
    pass


_MODEL_KEYS = ("model.S", "model.Q", "model.eta", "model.gamma",
               "model.f_plus", "model.f_minus", "model.h_plus", "model.h_minus")

_SHIFT_KEYS = {"mean_shift_plus": "simulate.shift_mean_plus",
               "sd_scale_plus": "simulate.shift_sd_scale_plus",
               "mean_shift_minus": "simulate.shift_mean_minus",
               "sd_scale_minus": "simulate.shift_sd_scale_minus"}


@dataclass(frozen=True)
class RunConfig:
    raw: dict[str, str]
    samples_buy: Path | None
    samples_sell: Path | None
    model: SpreadModel | None
    domain: SpreadDomain | None
    delta: float | None
    chi: float | None
    resamples: int
    sim_deltas: tuple[float, ...]
    episodes: int
    shift: ShiftSpec
    validate_deltas: tuple[float, ...]
    validate_tol: float
    seed: int
    out_dir: Path

    def require_samples(self) -> tuple[Path, Path]:
        if self.samples_buy is None or self.samples_sell is None:
            raise ConfigError("samples.buy and samples.sell are required")
        return self.samples_buy, self.samples_sell

    def require_model(self) -> tuple[SpreadModel, SpreadDomain]:
        if self.model is None:
            raise ConfigError("model block is required (model.S ... model.h_minus)")
        # parse_config builds a domain whenever it builds a model
        return self.model, self.domain

    def with_overrides(self, out_dir: str | None, seed: int | None) -> "RunConfig":
        cfg = self
        if out_dir is not None:
            cfg = replace(cfg, out_dir=_nonempty_path("--out", out_dir))
        if seed is not None:
            cfg = replace(cfg, seed=_check_seed(seed))
        return cfg


def _check_seed(seed: int) -> int:
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    return seed


def _nonempty_path(key: str, text: str) -> Path:
    """A path value; an empty one is an error, never the current directory."""
    if not text:
        raise ConfigError(f"{key}: empty path")
    return Path(text)


def _keyed(prefix: str, owner, *args, **kwargs):
    """Call an owner's constructor or check; a ValueError becomes a
    ConfigError whose prefix + message names the config key."""
    try:
        return owner(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _parse_float(raw: dict[str, str], key: str, default: float | None = None) -> float | None:
    if key not in raw:
        return default
    try:
        val = float(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw[key]!r} as a number") from exc
    if not math.isfinite(val):
        raise ConfigError(f"{key}: value must be finite")
    return val


def _parse_int(raw: dict[str, str], key: str, default: int | None = None) -> int | None:
    if key not in raw:
        return default
    try:
        return int(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw[key]!r} as an integer") from exc


def _parse_radii(raw: dict[str, str], key: str, default: tuple[float, ...]) -> tuple[float, ...]:
    """A nonempty comma list of transport budgets; an empty entry is an error."""
    if key not in raw:
        return default
    if not all(tok.strip() for tok in raw[key].split(",")):
        raise ConfigError(f"{key}: {raw[key]!r} has an empty entry; list one or more radii, comma separated")
    try:
        vals = tuple(float(tok) for tok in raw[key].split(","))
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw[key]!r} as a number list") from exc
    return vals


def _check_radii(deltas: tuple[float, ...]) -> None:
    for delta in deltas:
        check_radius(delta)


def _check_tol(tol: float) -> None:
    if tol <= 0:
        raise ValueError("must be positive")


# key: (RunConfig field, parser, default, owner's check, prefix that makes
# the check's message name the key); a default of None is not checked
_SCALAR_KEYS = {
    "radius.delta": ("delta", _parse_float, None, check_radius, "radius.delta: "),
    "radius.chi": ("chi", _parse_float, None, check_chi, "radius."),
    "radius.resamples": ("resamples", _parse_int, DEFAULT_RESAMPLES, check_resamples, "radius."),
    "simulate.episodes": ("episodes", _parse_int, 10_000, check_episodes, "simulate."),
    "simulate.deltas": ("sim_deltas", _parse_radii, (0.0, 0.01, 0.04), _check_radii, "simulate.deltas: "),
    "validate.deltas": ("validate_deltas", _parse_radii, DEFAULT_DELTAS, _check_radii, "validate.deltas: "),
    "validate.tol": ("validate_tol", _parse_float, DEFAULT_TOL, _check_tol, "validate.tol "),
    "seed": ("seed", _parse_int, 0, _check_seed, ""),
}

_KNOWN_KEYS = set(_MODEL_KEYS) | set(_SHIFT_KEYS.values()) | set(_SCALAR_KEYS) | {
    "samples.buy", "samples.sell", "domain.eps_max", "domain.grid_n", "output.dir"}


def parse_config(path: str | Path) -> RunConfig:
    path = Path(path)
    raw: dict[str, str] = {}
    for lineno, line in enumerate(_keyed("", read_text_lines, path), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
        raw[key] = value

    base = path.parent

    # base / path leaves an absolute path as it is
    samples_buy, samples_sell = (base / _nonempty_path(key, raw[key]) if key in raw else None
                                 for key in ("samples.buy", "samples.sell"))

    model = None
    if any(k in raw for k in _MODEL_KEYS):
        missing = [k for k in _MODEL_KEYS if k not in raw]
        if missing:
            raise ConfigError(f"incomplete model block, missing {missing}")
        params = {k[len("model."):]: _parse_float(raw, k) for k in _MODEL_KEYS[:4]}
        for key in _MODEL_KEYS[4:]:
            params[key[len("model."):]] = _keyed(f"{key}: ", parse_function_spec, raw[key])
        model = _keyed("model.", SpreadModel, **params)

    domain = None
    if model is not None:
        # eps_max defaults to 0.1 * S; grid_n left out takes SpreadDomain's default
        grid_n = {"grid_n": _parse_int(raw, "domain.grid_n")} if "domain.grid_n" in raw else {}
        try:
            domain = SpreadDomain(eps_max=_parse_float(raw, "domain.eps_max", 0.1 * model.S), **grid_n)
        except ValueError as exc:
            # SpreadDomain messages start with the field name
            hint = " (it defaults to 0.1 * model.S)" if str(exc).startswith("eps_max") else ""
            raise ConfigError(f"domain.{exc}{hint}") from exc
        _keyed("model.", validate_model_on_domain, model, domain)
    else:
        for key in raw:
            if key.startswith("domain."):
                raise ConfigError(f"{key} requires a model block")

    if "radius.delta" in raw and "radius.chi" in raw:
        raise ConfigError("give exactly one of radius.delta and radius.chi, not both")
    scalars = {}
    for key, (field, parse, default, check, prefix) in _SCALAR_KEYS.items():
        scalars[field] = parse(raw, key, default)
        if scalars[field] is not None:
            _keyed(prefix, check, scalars[field])
    # keys left out take ShiftSpec's defaults
    shift = _keyed("simulate.shift_", ShiftSpec, **{
        field: _parse_float(raw, key) for field, key in _SHIFT_KEYS.items() if key in raw})

    return RunConfig(raw=dict(raw), samples_buy=samples_buy, samples_sell=samples_sell, model=model, domain=domain,
                     shift=shift, out_dir=base / _nonempty_path("output.dir", raw.get("output.dir", "out")),
                     **scalars)
