"""Flat key = value run configuration.

Dotted keys group into blocks; values are numbers, paths, comma lists,
or function specs like exp_decay(2.0, 1.5). Exactly one of radius.delta
and radius.chi may be given. Sample paths resolve relative to the config
file location.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .functions import parse_function_spec
from .moments import check_radius
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

_KNOWN_KEYS = set(_MODEL_KEYS) | set(_SHIFT_KEYS.values()) | {
    "samples.buy",
    "samples.sell",
    "domain.eps_max",
    "domain.grid_n",
    "radius.delta",
    "radius.chi",
    "radius.resamples",
    "simulate.deltas",
    "simulate.episodes",
    "validate.deltas",
    "validate.tol",
    "seed",
    "output.dir",
}


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

    def require_model(self) -> SpreadModel:
        if self.model is None:
            raise ConfigError("model block is required (model.S ... model.h_minus)")
        return self.model

    def require_domain(self) -> SpreadDomain:
        # parse_config builds a domain whenever it builds a model
        self.require_model()
        return self.domain

    def with_overrides(self, out_dir: str | None, seed: int | None) -> "RunConfig":
        cfg = self
        if out_dir is not None:
            cfg = replace(cfg, out_dir=Path(out_dir))
        if seed is not None:
            cfg = replace(cfg, seed=_check_seed(seed))
        return cfg


def _check_seed(seed: int) -> int:
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    return seed


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
    for delta in vals:
        _keyed(f"{key}: ", check_radius, delta)
    return vals


def parse_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        lines = path.read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc
    raw: dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
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

    samples_buy = base / raw["samples.buy"] if "samples.buy" in raw else None
    samples_sell = base / raw["samples.sell"] if "samples.sell" in raw else None

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

    delta = _parse_float(raw, "radius.delta")
    chi = _parse_float(raw, "radius.chi")
    if delta is not None and chi is not None:
        raise ConfigError("give exactly one of radius.delta and radius.chi, not both")
    if delta is not None:
        _keyed("radius.delta: ", check_radius, delta)
    if chi is not None:
        _keyed("radius.", check_chi, chi)
    resamples = _parse_int(raw, "radius.resamples", DEFAULT_RESAMPLES)
    _keyed("radius.", check_resamples, resamples)

    episodes = _parse_int(raw, "simulate.episodes", 10_000)
    _keyed("simulate.", check_episodes, episodes)
    sim_deltas = _parse_radii(raw, "simulate.deltas", (0.0, 0.01, 0.04))
    # keys left out take ShiftSpec's defaults
    shift = _keyed("simulate.shift_", ShiftSpec, **{
        field: _parse_float(raw, key) for field, key in _SHIFT_KEYS.items() if key in raw})

    validate_deltas = _parse_radii(raw, "validate.deltas", DEFAULT_DELTAS)
    validate_tol = _parse_float(raw, "validate.tol", DEFAULT_TOL)
    if validate_tol <= 0:
        raise ConfigError("validate.tol must be positive")
    seed = _check_seed(_parse_int(raw, "seed", 0))

    out_dir = Path(raw.get("output.dir", "out"))
    if not out_dir.is_absolute():
        out_dir = base / out_dir

    return RunConfig(
        raw=dict(raw),
        samples_buy=samples_buy,
        samples_sell=samples_sell,
        model=model,
        domain=domain,
        delta=delta,
        chi=chi,
        resamples=resamples,
        sim_deltas=sim_deltas,
        episodes=episodes,
        shift=shift,
        validate_deltas=validate_deltas,
        validate_tol=validate_tol,
        seed=seed,
        out_dir=out_dir,
    )
