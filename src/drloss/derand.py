"""Vote-based derandomization of randomized classifiers and certifiers.

A randomized classifier draws fresh randomness at every prediction.  Fixing
t pre-sampled draws and taking the plurality vote turns it into a
deterministic classifier whose adversarial error stays close to the
original; the analogue for a randomized certification radius is the median
of the t radii.  Both derandomized objects are immutable: inference uses
no randomness at all.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .perturb import (
    DistributionError,
    FiniteDistribution,
    PerturbationDistribution,
    sample,
)


@dataclass(frozen=True)
class RandomizedClassifier:
    """A classifier ``evaluate(x, draw) -> label`` with its randomness distribution.

    ``evaluate`` must be deterministic given (x, draw); all randomness lives
    in the distribution the draws come from.
    """

    evaluate: Callable
    randomness: PerturbationDistribution


@dataclass(frozen=True)
class RandomizedCertifier:
    """A certification procedure ``evaluate(x, draw) -> radius >= 0``.

    ``robust_region`` supplies the ground-truth scalar measure of the
    stable-label region around a point (for a 1-d threshold classifier,
    distance to the cut); it is an input of the experiment, not something
    this module derives.
    """

    evaluate: Callable
    randomness: PerturbationDistribution
    robust_region: Callable


def plurality(labels: Sequence[int]) -> int:
    """Most frequent label; ties go to the smallest label in sorted order."""
    counts: dict = {}
    for lab in labels:
        counts[lab] = counts.get(lab, 0) + 1
    best = max(counts.values())
    return min(lab for lab, c in counts.items() if c == best)


def lower_median(values: Sequence[float]) -> float:
    """Median, taking the lower of the two central values for even length."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


@dataclass(frozen=True)
class DerandClassifier:
    """Plurality vote over a fixed tuple of pre-sampled randomness draws."""

    base: RandomizedClassifier
    seeds: tuple

    def __post_init__(self):
        if len(self.seeds) < 1:
            raise ValueError("need at least one fixed draw")

    def predict(self, x) -> int:
        return plurality([self.base.evaluate(x, r) for r in self.seeds])


@dataclass(frozen=True)
class DerandCertifier:
    """Median radius over a fixed tuple of pre-sampled randomness draws."""

    base: RandomizedCertifier
    seeds: tuple

    def __post_init__(self):
        if len(self.seeds) < 1:
            raise ValueError("need at least one fixed draw")

    def radius(self, x) -> float:
        return lower_median([self.base.evaluate(x, r) for r in self.seeds])


def required_trials(eta: float, a_size: int, delta: float) -> int:
    """Number of pre-sampled draws: ceil((100 / eta^2) * ln(a_size / delta)).

    Natural log is the conservative reading (more votes); the result is
    clamped to at least one vote.  When one t must serve every example,
    pass the largest attack-set size.
    """
    if not 0 < eta < 0.5:
        raise ValueError("eta must be in (0, 1/2)")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if a_size < 1:
        raise ValueError("a_size must be positive")
    return max(1, math.ceil((100.0 / (eta * eta)) * math.log(a_size / delta)))


def derandomize_classifier(base: RandomizedClassifier, t: int,
                           rng: np.random.Generator) -> DerandClassifier:
    """Fix t i.i.d. randomness draws forever; predictions become plurality votes."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return DerandClassifier(base, tuple(sample(base.randomness, t, rng)))


def derandomize_certifier(cert: RandomizedCertifier, t: int,
                          rng: np.random.Generator) -> DerandCertifier:
    """Fix t i.i.d. randomness draws; the certified radius becomes their median."""
    if t < 1:
        raise ValueError("t must be >= 1")
    return DerandCertifier(cert, tuple(sample(cert.randomness, t, rng)))


@dataclass(frozen=True)
class AttackTask:
    """A finite data distribution plus a finite attack set A(x) per instance."""

    data_dist: FiniteDistribution  # support points are (x, y) pairs
    attacks: Mapping  # x -> tuple of attack points x'

    def __post_init__(self):
        for (x, y) in self.data_dist.support:
            if x not in self.attacks or not self.attacks[x]:
                raise ValueError(f"missing or empty attack set for x={x!r}")

    def atoms(self) -> list:
        return [(x, y, p) for (x, y), p in zip(self.data_dist.support, self.data_dist.probs)]

    def max_attack_size(self) -> int:
        return max(len(self.attacks[x]) for x, _, _ in self.atoms())


def evaluate_derand_dr(det: DerandClassifier, task: AttackTask) -> float:
    """Exact probability mass of examples with some fooling attack point."""
    return math.fsum(
        p for x, y, p in task.atoms()
        if any(det.predict(xp) != y for xp in task.attacks[x])
    )


class CertBandReport(NamedTuple):
    """Mass out of band, plus the separately reported zero-region mass."""

    violation_mass: float
    zero_region_mass: float


def evaluate_cert_band(det: DerandCertifier, task: AttackTask,
                       alpha: float, beta: float) -> CertBandReport:
    """Mass of examples whose median radius leaves [1-beta, 1+alpha] somewhere on A(x).

    Points with a zero robust region are excluded from the ratio (counted
    separately), except that a strictly positive radius over a zero region
    is itself a violation.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    violation = 0.0
    zero_region = 0.0
    for x, y, p in task.atoms():
        bad = False
        saw_zero = False
        for xp in task.attacks[x]:
            region = det.base.robust_region(xp)
            r = det.radius(xp)
            if region == 0.0:
                saw_zero = True
                if r > 0.0:
                    bad = True
                continue
            ratio = r / region
            if not (1.0 - beta <= ratio <= 1.0 + alpha):
                bad = True
        if bad:
            violation += p
        if saw_zero:
            zero_region += p
    return CertBandReport(violation, zero_region)


def exact_point_error(classifier: RandomizedClassifier, x, y) -> float:
    """Per-draw error probability at one point, by enumerating finite randomness."""
    dist = classifier.randomness
    if not isinstance(dist, FiniteDistribution):
        raise DistributionError("exact per-draw error needs finite randomness")
    return math.fsum(q for r, q in zip(dist.support, dist.probs)
                     if classifier.evaluate(x, r) != y)


def worst_point_errors(classifier: RandomizedClassifier, task: AttackTask) -> dict:
    """Exact worst per-draw error over A(x) for each data atom, keyed by (x, y)."""
    return {
        (x, y): max(exact_point_error(classifier, xp, y) for xp in task.attacks[x])
        for x, y, _ in task.atoms()
    }


def epsilon_eta(task: AttackTask, point_errors: Mapping, eta: float) -> float:
    """Mass of examples whose worst per-draw error reaches 1/2 - eta.

    This is the part of the data no vote count can rescue; it always obeys
    epsilon_eta <= 2 * mean_error / (1 - 2 eta) by Markov's inequality.
    """
    if not 0 < eta < 0.5:
        raise ValueError("eta must be in (0, 1/2)")
    return math.fsum(p for x, y, p in task.atoms() if point_errors[(x, y)] >= 0.5 - eta)


def encode_seeds(seeds: Sequence) -> list:
    """Hex-encode fixed draws so a derandomized model is exactly reconstructible."""
    out = []
    for r in seeds:
        if isinstance(r, tuple):
            out.append(struct.pack(f"<{len(r)}d", *r).hex())
        else:
            out.append(struct.pack("<d", float(r)).hex())
    return out


def decode_seeds(encoded: Sequence[str]) -> tuple:
    """Invert :func:`encode_seeds`; multi-double payloads decode to tuples."""
    seeds = []
    for hexstr in encoded:
        raw = bytes.fromhex(hexstr)
        vals = struct.unpack(f"<{len(raw) // 8}d", raw)
        seeds.append(vals[0] if len(vals) == 1 else vals)
    return tuple(seeds)
