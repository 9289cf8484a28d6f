"""Single-period episode simulation under sampled spreads and order flow.

An episode draws a spread pair from the policy, then innovations from
the meta-distributions; fills are dN = h(eps) * innovation + f(eps).
Cash collects (S + eps+) dN+ - (S - eps-) dN-, inventory moves to
Q + dN+ - dN-, and the realized objective is cash minus eta times the
squared terminal inventory, computed exactly from the episode fields.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .moments import SampleSet, check_radius, empirical_moments
from .policy import (
    PolicyGrid,
    SpreadDomain,
    SpreadModel,
    build_policy,
    sample_policy,
    solve_inner,
)

_KINDS = ("gaussian", "two_point", "empirical")
# a batch holds about ten episode-long arrays of 8-byte values: 240 MB at the cap
_EPISODES_MAX = 3_000_000


@dataclass(frozen=True)
class MetaDistribution:
    """Law of one side's innovation; the simulator's ground truth."""

    kind: str
    params: tuple[float, ...] = ()
    atoms: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}")
        params = tuple(float(p) for p in self.params)
        if self.kind == "gaussian":
            if len(params) != 2 or params[1] < 0:
                raise ValueError("gaussian takes (mean, sd) with sd >= 0")
        elif self.kind == "two_point":
            if len(params) != 3 or not (0.0 <= params[2] <= 1.0):
                raise ValueError("two_point takes (x1, x2, p) with p in [0, 1]")
        else:
            if self.atoms is None or len(self.atoms) == 0:
                raise ValueError("empirical law needs atoms")
            object.__setattr__(self, "atoms", tuple(float(a) for a in self.atoms))
        if not all(math.isfinite(p) for p in params):
            raise ValueError("parameters must be finite")
        object.__setattr__(self, "params", params)

    @classmethod
    def gaussian(cls, mean: float, sd: float) -> "MetaDistribution":
        return cls(kind="gaussian", params=(mean, sd))

    @classmethod
    def two_point(cls, x1: float, x2: float, p: float) -> "MetaDistribution":
        return cls(kind="two_point", params=(x1, x2, p))

    @classmethod
    def empirical(cls, samples: SampleSet) -> "MetaDistribution":
        return cls(kind="empirical", atoms=samples.values)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.kind == "gaussian":
            mean, sd = self.params
            return rng.normal(mean, sd, size=size)
        if self.kind == "two_point":
            x1, x2, p = self.params
            return np.where(rng.random(size) < p, x1, x2)
        return rng.choice(np.asarray(self.atoms), size=size, replace=True)

    def moments(self) -> tuple[float, float]:
        """Exact (mean, second moment) of the law."""
        if self.kind == "gaussian":
            mean, sd = self.params
            return mean, mean * mean + sd * sd
        if self.kind == "two_point":
            x1, x2, p = self.params
            return p * x1 + (1 - p) * x2, p * x1 * x1 + (1 - p) * x2 * x2
        x = np.asarray(self.atoms)
        return float(np.mean(x)), float(np.mean(x * x))

    def affine(self, shift: float, scale: float) -> "MetaDistribution":
        """Pushforward under x -> shift + scale * x."""
        if self.kind == "gaussian":
            mean, sd = self.params
            return MetaDistribution.gaussian(shift + scale * mean, abs(scale) * sd)
        if self.kind == "two_point":
            x1, x2, p = self.params
            return MetaDistribution.two_point(shift + scale * x1, shift + scale * x2, p)
        atoms = tuple(shift + scale * a for a in self.atoms)
        return MetaDistribution(kind="empirical", atoms=atoms)


@dataclass(frozen=True)
class ShiftSpec:
    """Independent distortions of the true laws: the mean moves by
    mean_shift while the spread around it scales by sd_scale."""

    mean_shift_plus: float = 0.0
    sd_scale_plus: float = 1.0
    mean_shift_minus: float = 0.0
    sd_scale_minus: float = 1.0

    @staticmethod
    def _distort(meta: MetaDistribution, mean_shift: float, sd_scale: float) -> MetaDistribution:
        # scale about the current mean so the two knobs stay independent
        mean, _ = meta.moments()
        shift = mean_shift + mean * (1.0 - sd_scale)
        return meta.affine(shift, sd_scale)

    def apply(self, metas: tuple[MetaDistribution, MetaDistribution]) -> tuple[MetaDistribution, MetaDistribution]:
        mp, mm = metas
        return (
            self._distort(mp, self.mean_shift_plus, self.sd_scale_plus),
            self._distort(mm, self.mean_shift_minus, self.sd_scale_minus),
        )


def simulate_batch(
    policy: PolicyGrid,
    model: SpreadModel,
    metas: tuple[MetaDistribution, MetaDistribution],
    episodes: int,
    rng: np.random.Generator,
) -> dict[str, np.ndarray]:
    """Vectorized episodes: one spread pair and one innovation per side
    each, booked as the module docstring describes."""
    eps_plus, eps_minus = sample_policy(policy, rng, size=episodes)
    xi_p = metas[0].draw(rng, episodes)
    xi_m = metas[1].draw(rng, episodes)
    dn_p = np.asarray(model.h_plus(eps_plus)) * xi_p + np.asarray(model.f_plus(eps_plus))
    dn_m = np.asarray(model.h_minus(eps_minus)) * xi_m + np.asarray(model.f_minus(eps_minus))
    cash = (model.S + eps_plus) * dn_p - (model.S - eps_minus) * dn_m
    inventory = model.Q + dn_p - dn_m
    objective = cash - model.eta * inventory * inventory
    return {
        "eps_plus": eps_plus,
        "eps_minus": eps_minus,
        "fill_plus": dn_p,
        "fill_minus": dn_m,
        "cash_delta": cash,
        "inventory_after": inventory,
        "objective": objective,
    }


@dataclass(frozen=True)
class ShiftRow:
    delta: float
    mean_objective: float
    std_err: float
    p10_objective: float
    concave_certificate: bool


@dataclass(frozen=True)
class ShiftReport:
    rows: tuple[ShiftRow, ...]
    episodes: int


def check_episodes(episodes: int) -> None:
    if not 1000 <= episodes <= _EPISODES_MAX:
        raise ValueError(f"episodes must be between 1000 and {_EPISODES_MAX}, got {episodes}")


def shift_experiment(
    samples: tuple[SampleSet, SampleSet],
    model: SpreadModel,
    domain: SpreadDomain,
    deltas: tuple[float, ...],
    shift: ShiftSpec,
    episodes: int,
    rng_seed: int,
) -> ShiftReport:
    """Robust policies of increasing radius evaluated under distorted laws.

    Per radius: solve the inner problem on the sampled moments, build the
    policy, then score it on episodes whose innovations come from the
    shifted meta-distributions. Episode streams are independent across
    radii via spawned child seeds, all descending from rng_seed.
    """
    for delta in deltas:
        check_radius(delta)
    check_episodes(episodes)
    samples_plus, samples_minus = samples
    summaries = (empirical_moments(samples_plus), empirical_moments(samples_minus))
    base = (MetaDistribution.empirical(samples_plus), MetaDistribution.empirical(samples_minus))
    true_metas = shift.apply(base)

    children = np.random.SeedSequence(rng_seed).spawn(len(deltas))
    rows = []
    for delta, child in zip(deltas, children):
        solution = solve_inner(model, domain, summaries, delta)
        policy = build_policy(model, domain, solution)
        rng = np.random.default_rng(child)
        # extreme shifts or prices overflow the bookkeeping: one error, not numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            obj = simulate_batch(policy, model, true_metas, episodes, rng)["objective"]
            mean = float(np.mean(obj))
            std_err = float(np.std(obj, ddof=1) / math.sqrt(episodes))
            p10 = float(np.percentile(obj, 10.0))
        if not all(map(math.isfinite, (mean, std_err, p10))):
            raise ValueError(f"episode objectives overflow at delta {delta!r}")
        rows.append(
            ShiftRow(
                delta=float(delta),
                mean_objective=mean,
                std_err=std_err,
                p10_objective=p10,
                concave_certificate=solution.concave_certificate,
            )
        )
    return ShiftReport(rows=tuple(rows), episodes=episodes)
