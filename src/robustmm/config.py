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
from .policy import SpreadDomain, SpreadModel
from .simulator import ShiftSpec


class ConfigError(ValueError):
    pass


_MODEL_KEYS = ("model.S", "model.Q", "model.eta", "model.gamma",
               "model.f_plus", "model.f_minus", "model.h_plus", "model.h_minus")

_KNOWN_KEYS = set(_MODEL_KEYS) | {
    "samples.buy",
    "samples.sell",
    "domain.eps_max",
    "domain.grid_n",
    "domain.quadrature",
    "radius.delta",
    "radius.chi",
    "radius.resamples",
    "simulate.deltas",
    "simulate.episodes",
    "simulate.shift_mean_plus",
    "simulate.shift_sd_scale_plus",
    "simulate.shift_mean_minus",
    "simulate.shift_sd_scale_minus",
    "validate.deltas",
    "validate.tol",
    "seed",
    "output.dir",
}


@dataclass(frozen=True)
class RunConfig:
    source: Path
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
        model = self.require_model()
        if self.domain is not None:
            return self.domain
        return SpreadDomain(eps_max=0.1 * model.S)

    def with_overrides(self, out_dir: str | None, seed: int | None) -> "RunConfig":
        cfg = self
        if out_dir is not None:
            cfg = replace(cfg, out_dir=Path(out_dir))
        if seed is not None:
            if seed < 0:
                raise ConfigError("seed must be nonnegative")
            cfg = replace(cfg, seed=int(seed))
        return cfg


def _parse_float(raw: dict[str, str], key: str) -> float | None:
    if key not in raw:
        return None
    try:
        val = float(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw[key]!r} as a number") from exc
    if not math.isfinite(val):
        raise ConfigError(f"{key}: value must be finite")
    return val


def _parse_int(raw: dict[str, str], key: str) -> int | None:
    if key not in raw:
        return None
    try:
        return int(raw[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw[key]!r} as an integer") from exc


def _parse_floats(raw: dict[str, str], key: str) -> tuple[float, ...] | None:
    if key not in raw:
        return None
    try:
        vals = tuple(float(tok) for tok in raw[key].split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw[key]!r} as a number list") from exc
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"{key}: values must be finite")
    return vals


def parse_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    raw: dict[str, str] = {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
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
    present = [k for k in _MODEL_KEYS if k in raw]
    if present:
        missing = [k for k in _MODEL_KEYS if k not in raw]
        if missing:
            raise ConfigError(f"incomplete model block, missing {missing}")
        try:
            model = SpreadModel(
                S=_parse_float(raw, "model.S"),
                Q=_parse_float(raw, "model.Q"),
                eta=_parse_float(raw, "model.eta"),
                gamma=_parse_float(raw, "model.gamma"),
                f_plus=parse_function_spec(raw["model.f_plus"]),
                f_minus=parse_function_spec(raw["model.f_minus"]),
                h_plus=parse_function_spec(raw["model.h_plus"]),
                h_minus=parse_function_spec(raw["model.h_minus"]),
            )
        except ValueError as exc:
            raise ConfigError(f"model block: {exc}") from exc

    domain = None
    if any(k in raw for k in ("domain.eps_max", "domain.grid_n", "domain.quadrature")):
        if model is None:
            raise ConfigError("domain block requires a model block")
        eps_max = _parse_float(raw, "domain.eps_max")
        grid_n = _parse_int(raw, "domain.grid_n")
        try:
            domain = SpreadDomain(
                eps_max=eps_max if eps_max is not None else 0.1 * model.S,
                grid_n=grid_n if grid_n is not None else 257,
                quadrature=raw.get("domain.quadrature", "trapezoid"),
            )
        except ValueError as exc:
            raise ConfigError(f"domain block: {exc}") from exc

    delta = _parse_float(raw, "radius.delta")
    chi = _parse_float(raw, "radius.chi")
    if delta is not None and chi is not None:
        raise ConfigError("give exactly one of radius.delta and radius.chi, not both")
    if delta is not None and delta < 0:
        raise ConfigError("radius.delta: negative radius")
    if chi is not None and not (0.0 < chi < 1.0):
        raise ConfigError("radius.chi must be in (0, 1)")

    resamples = _parse_int(raw, "radius.resamples")
    if resamples is None:
        resamples = 500
    elif resamples < 100:
        raise ConfigError("radius.resamples must be at least 100")

    episodes = _parse_int(raw, "simulate.episodes")
    if episodes is None:
        episodes = 10_000
    elif episodes < 1000:
        raise ConfigError("simulate.episodes must be at least 1000")

    sim_deltas = _parse_floats(raw, "simulate.deltas")
    if sim_deltas is None:
        sim_deltas = (0.0, 0.01, 0.04)
    if len(sim_deltas) == 0:
        raise ConfigError("simulate.deltas must list at least one radius")
    if any(d < 0 for d in sim_deltas):
        raise ConfigError("simulate.deltas: negative radius")

    def _default(value: float | None, fallback: float) -> float:
        return fallback if value is None else value

    shift = ShiftSpec(
        mean_shift_plus=_default(_parse_float(raw, "simulate.shift_mean_plus"), 0.0),
        sd_scale_plus=_default(_parse_float(raw, "simulate.shift_sd_scale_plus"), 1.0),
        mean_shift_minus=_default(_parse_float(raw, "simulate.shift_mean_minus"), 0.0),
        sd_scale_minus=_default(_parse_float(raw, "simulate.shift_sd_scale_minus"), 1.0),
    )

    validate_deltas = _parse_floats(raw, "validate.deltas")
    if validate_deltas is None:
        validate_deltas = (0.01, 0.04, 0.25)
    if len(validate_deltas) == 0:
        raise ConfigError("validate.deltas must list at least one radius")
    if any(d < 0 for d in validate_deltas):
        raise ConfigError("validate.deltas: negative radius")
    validate_tol = _parse_float(raw, "validate.tol")
    if validate_tol is None:
        validate_tol = 1e-4
    elif validate_tol <= 0:
        raise ConfigError("validate.tol must be positive")

    seed = _parse_int(raw, "seed")
    if seed is None:
        seed = 0
    if seed < 0:
        raise ConfigError("seed must be nonnegative")

    out_dir = Path(raw.get("output.dir", "out"))
    if not out_dir.is_absolute():
        out_dir = base / out_dir

    return RunConfig(
        source=path,
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
