"""Single-period episode simulation on each side's own sample, shifted.

An episode draws a spread pair from the policy, then one innovation per
side from the uniform law on that side's shifted sample; fills are
dN = h(eps) * innovation + f(eps). Cash collects (S + eps+) dN+ -
(S - eps-) dN-, inventory moves to Q + dN+ - dN-, and the realized
objective is cash minus eta times the squared terminal inventory,
computed exactly from the episode fields.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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

# a batch holds one episode-long array of 8-byte values: a traced peak of 26 MB at the cap
_EPISODES_MAX = 3_000_000
# episodes per block of the simulator's passes, a cache-sized run
_EPISODE_BLOCK = 1 << 14


@dataclass(frozen=True)
class MetaDistribution:
    """Law of one side's innovation, the simulator's ground truth: the
    uniform law on atoms."""

    atoms: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.atoms) == 0:
            raise ValueError("empirical law needs atoms")
        object.__setattr__(self, "atoms", tuple(float(a) for a in self.atoms))

    @cached_property
    def _atoms(self) -> np.ndarray:
        return np.asarray(self.atoms)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.choice(self._atoms, size=size, replace=True)


@dataclass(frozen=True)
class ShiftSpec:
    """Independent distortions of the true laws: the mean moves by
    mean_shift while the spread around it scales by sd_scale."""

    mean_shift_plus: float = 0.0
    sd_scale_plus: float = 1.0
    mean_shift_minus: float = 0.0
    sd_scale_minus: float = 1.0

    def __post_init__(self) -> None:
        # a negative scale would mirror the law about its mean
        for name in ("sd_scale_plus", "sd_scale_minus"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be nonnegative")

    def apply(self, samples: tuple[SampleSet, SampleSet]) -> tuple[MetaDistribution, MetaDistribution]:
        """Each side's empirical law pushed by x -> shift + sd_scale * x."""
        knobs = ((self.mean_shift_plus, self.sd_scale_plus),
                 (self.mean_shift_minus, self.sd_scale_minus))
        laws = []
        for sample, (mean_shift, sd_scale) in zip(samples, knobs):
            x = sample.as_array()
            # scale about the sample mean so the two knobs stay independent
            shift = mean_shift + float(np.mean(x)) * (1.0 - sd_scale)
            # a push past the float range (inf, or nan from inf - inf) is reported by
            # shift_experiment as overflowing episodes
            with np.errstate(over="ignore", invalid="ignore"):
                laws.append(MetaDistribution(tuple(shift + sd_scale * x)))
        return laws[0], laws[1]


def simulate_batch(
    policy: PolicyGrid,
    model: SpreadModel,
    metas: tuple[MetaDistribution, MetaDistribution],
    episodes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized episodes: one spread pair and one innovation per side
    each, booked as the module docstring describes. Returns the per-episode
    objective. Each block of _EPISODE_BLOCK episodes draws its spread pairs,
    then its plus innovations, then its minus ones, and is booked before the
    next block draws, so a batch of one block draws the stream of one pass."""
    objective = np.empty(episodes)
    for start in range(0, episodes, _EPISODE_BLOCK):
        end = min(start + _EPISODE_BLOCK, episodes)
        ep, em = sample_policy(policy, rng, size=end - start)
        dn_p = model.h_plus(ep) * metas[0].draw(rng, end - start) + model.f_plus(ep)
        dn_m = model.h_minus(em) * metas[1].draw(rng, end - start) + model.f_minus(em)
        inventory = model.Q + dn_p - dn_m
        objective[start:end] = (model.S + ep) * dn_p - (model.S - em) * dn_m - model.eta * inventory * inventory
    return objective


@dataclass(frozen=True)
class ShiftRow:
    delta: float
    mean_objective: float
    std_err: float
    p10_objective: float
    concave_certificate: bool


def _p10(obj: np.ndarray) -> float:
    """np.percentile(obj, 10.0) bit for bit from one selection, permuting obj:
    linear between order statistics k = floor(0.1 (N - 1)) and k + 1. numpy
    selects four order statistics and imports numpy.ma on its first call."""
    vi = (obj.size - 1) * 0.1
    k = math.floor(vi)
    g = vi - k
    obj.partition(k)
    a = float(obj[k])
    b = float(obj[k + 1:].min()) if k + 1 < obj.size else a
    # numpy's _lerp, which interpolates from the nearer end
    return b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g


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
) -> tuple[ShiftRow, ...]:
    """Robust policies of increasing radius evaluated under distorted laws.

    Per radius: solve the inner problem on the sampled moments, build the
    policy, then score it on episodes whose innovations come from each
    side's sample, shifted. Episode streams are independent across
    radii via spawned child seeds, all descending from rng_seed.
    """
    for delta in deltas:
        check_radius(delta)
    check_episodes(episodes)
    summaries = (empirical_moments(samples[0]), empirical_moments(samples[1]))
    true_metas = shift.apply(samples)

    children = np.random.SeedSequence(rng_seed).spawn(len(deltas))
    rows = []
    for delta, child in zip(deltas, children):
        solution = solve_inner(model, domain, summaries, delta)
        policy = build_policy(model, domain, solution)
        rng = np.random.default_rng(child)
        # extreme shifts or prices overflow the bookkeeping: one error, not numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            obj = simulate_batch(policy, model, true_metas, episodes, rng)
            mean = float(np.mean(obj))
            # the 10th percentile's one selection permutes obj; the squared
            # deviations then overwrite it, so no second episode array exists
            p10 = _p10(obj)
            obj -= mean
            obj *= obj
            std_err = math.sqrt(float(np.sum(obj)) / (episodes - 1)) / math.sqrt(episodes)
        del obj  # free this radius's episodes before the next batch
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
    return tuple(rows)
