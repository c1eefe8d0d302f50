"""Perturbation distributions, total-variation machinery, and cover models.

Finite-support distributions are the exact-computation backbone: every
worst-case-over-distributions loss on them is a finite sum, so brute-force
oracles are available throughout.  Gaussians are sampling-only and appear
where additive input noise is the perturbation model.

All types are immutable after construction and safe to share across
parallel workers; sampling always takes an explicit generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

Point = Union[float, int, tuple]

RENORMALIZE_TOL = 1e-9
COVER_TOL = 1e-12
# categorical() counts cdf steps for up to COUNT_MAX_K categories and at least
# COUNT_MIN_DRAWS draws, and binary-searches otherwise; see ROADMAP.md for the
# timings they were chosen from
COUNT_MAX_K = 8
COUNT_MIN_DRAWS = 1000


class DistributionError(ValueError):
    """Invalid distribution construction or use."""


@dataclass(frozen=True)
class FiniteDistribution:
    """A probability distribution with finite support.

    Probabilities must be nonnegative and sum to one within 1e-9; sums in
    that tolerance are renormalized exactly, anything further off is
    rejected.  Support points must be distinct and hashable (scalars or
    tuples of scalars).
    """

    support: tuple
    probs: tuple

    def __init__(self, support: Sequence[Point], probs: Sequence[float]):
        support = tuple(support)
        probs = tuple(float(p) for p in probs)
        if len(support) == 0:
            raise DistributionError("empty support")
        if len(support) != len(probs):
            raise DistributionError("support and probs length mismatch")
        if len(set(support)) != len(support):
            raise DistributionError("support points must be distinct")
        if any(p < 0.0 for p in probs):
            raise DistributionError("negative probability")
        total = math.fsum(probs)
        if abs(total - 1.0) > RENORMALIZE_TOL:
            raise DistributionError(f"probabilities sum to {total!r}, not 1")
        if total != 1.0:
            probs = tuple(p / total for p in probs)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "_index", {z: p for z, p in zip(support, probs)})

    def prob_of(self, point: Point) -> float:
        """Probability mass at ``point`` (0 for points outside the support)."""
        return self._index.get(point, 0.0)

    def prob_array(self) -> np.ndarray:
        return np.asarray(self.probs, dtype=float)

    @classmethod
    def point_mass(cls, point: Point) -> "FiniteDistribution":
        return cls([point], [1.0])

    @classmethod
    def uniform(cls, points: Sequence[Point]) -> "FiniteDistribution":
        pts = list(points)
        return cls(pts, [1.0 / len(pts)] * len(pts))


@dataclass(frozen=True)
class GaussianDistribution:
    """Isotropic Gaussian around ``center`` with standard deviation ``sigma``.

    The center is a scalar (1-d) or a tuple of scalars; draws have the same
    shape.  Exact summation is unavailable, so any computation over a
    Gaussian member goes through sampling.
    """

    center: Point
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise DistributionError("sigma must be positive")
        if isinstance(self.center, tuple):
            object.__setattr__(self, "center", tuple(float(c) for c in self.center))
        else:
            object.__setattr__(self, "center", float(self.center))


PerturbationDistribution = Union[FiniteDistribution, GaussianDistribution]


@dataclass(frozen=True)
class DistributionFamily:
    """Per-example family: the true members and an optional representative set.

    ``k`` caps the representative set; in the bounded model (no
    representative set) it caps the true set itself.
    """

    true_set: tuple
    rep_set: Optional[tuple]
    k: int

    def __init__(self, true_set: Sequence[PerturbationDistribution],
                 rep_set: Optional[Sequence[PerturbationDistribution]] = None,
                 k: int = 1):
        true_set = tuple(true_set)
        rep_set = tuple(rep_set) if rep_set is not None else None
        if k < 1:
            raise DistributionError("k must be positive")
        if not true_set:
            raise DistributionError("empty true set")
        if rep_set is not None:
            if not rep_set:
                raise DistributionError("empty representative set")
            if len(rep_set) > k:
                raise DistributionError(f"|rep_set|={len(rep_set)} exceeds k={k}")
        elif len(true_set) > k:
            raise DistributionError(f"bounded model requires |true_set| <= k, got {len(true_set)} > {k}")
        object.__setattr__(self, "true_set", true_set)
        object.__setattr__(self, "rep_set", rep_set)
        object.__setattr__(self, "k", int(k))

    def members(self, view: str) -> tuple:
        """The member list for ``view`` in {"true", "rep"}."""
        if view == "true":
            return self.true_set
        if view == "rep":
            if self.rep_set is None:
                raise DistributionError("family has no representative set")
            return self.rep_set
        raise ValueError(f"unknown view {view!r}")


def categorical(p: np.ndarray, size, rng: np.random.Generator) -> np.ndarray:
    """Indices of i.i.d. draws from the probabilities ``p``, of shape ``size``.

    The indices and the uniforms taken from ``rng`` are those of numpy's
    ``Generator.choice`` over ``len(p)`` with these probabilities.  It maps
    each u of ``rng.random(size)`` to ``cdf.searchsorted(u, "right")``, the
    number of j with u >= cdf[j], where ``cdf`` is the cumulative sum of
    ``p`` divided by its last entry.  As u < 1 = cdf[-1], for up to
    ``COUNT_MAX_K`` categories and at least ``COUNT_MIN_DRAWS`` draws those
    comparisons over j < K - 1 are summed directly, in the narrowest integer
    type that holds K - 1; otherwise the binary search is faster.  ``p`` is
    taken as checked (nonnegative, summing to 1).
    """
    cdf = np.cumsum(p, dtype=float)
    cdf /= cdf[-1]
    u = rng.random(size)
    if len(cdf) > COUNT_MAX_K or u.size < COUNT_MIN_DRAWS:
        return cdf.searchsorted(u, "right")
    idx = np.zeros(u.shape, dtype=np.min_scalar_type(len(cdf) - 1))
    for c in cdf[:-1]:
        idx += u >= c
    return idx.astype(np.intp)


def sample_indices(dist: FiniteDistribution, count: int, rng: np.random.Generator) -> np.ndarray:
    """Indices into ``dist.support`` of ``count`` i.i.d. draws from ``dist``.

    ``sample`` draws through it, and so do callers that gather from an array
    of the support themselves, so both see the same points for one rng state.
    """
    return categorical(dist.prob_array(), count, rng)


class SortedSampler:
    """Sorted i.i.d. draws from a finite distribution over scalars.

    ``draw(count, rng)`` returns ``np.sort(support[sample_indices(dist, count,
    rng)])`` and leaves ``rng`` in the same state, without the binary search
    of unsorted uniforms and the sort of the gathered points.
    ``categorical``, like ``Generator.choice``, takes ``count`` uniforms u
    and maps each to ``searchsorted(cdf, u, "right")``, the first j with
    u < cdf[j], where ``cdf`` is the cumulative sum of the probabilities
    divided by its last entry.  So the number of draws at indices <= j is the
    number of uniforms below cdf[j].  Here the same ``count`` uniforms are
    sorted, those counts are read off with one ``searchsorted`` of the cdf
    into them, and the support, sorted once at construction, is repeated by
    its counts.  Differential tests against ``sample_indices`` and numpy's
    ``choice`` guard the equality.
    """

    def __init__(self, dist: FiniteDistribution):
        support = np.asarray(dist.support)
        if support.ndim != 1:
            raise DistributionError("sorted draws need a scalar support")
        cdf = dist.prob_array().cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf
        self._order = np.argsort(support, kind="stable")
        self._values = support[self._order]

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` i.i.d. draws in ascending order."""
        below = np.sort(rng.random(count)).searchsorted(self._cdf, side="left")
        counts = np.diff(below, prepend=0)
        return np.repeat(self._values, counts[self._order])


def sample(dist: PerturbationDistribution, count: int, rng: np.random.Generator) -> list:
    """Draw ``count`` i.i.d. points from ``dist``; deterministic given the rng state."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if isinstance(dist, FiniteDistribution):
        return [dist.support[i] for i in sample_indices(dist, count, rng)]
    if isinstance(dist, GaussianDistribution):
        if isinstance(dist.center, tuple):
            d = len(dist.center)
            noise = rng.standard_normal((count, d)) * dist.sigma
            c = np.asarray(dist.center)
            return [tuple(float(v) for v in c + row) for row in noise]
        noise = rng.standard_normal(count) * dist.sigma
        return [float(dist.center + e) for e in noise]
    raise DistributionError(f"cannot sample from {type(dist).__name__}")


def tv_distance(a: FiniteDistribution, b: FiniteDistribution) -> float:
    """Total variation distance (1/2) sum |a(z) - b(z)| over the union of supports."""
    points = set(a.support) | set(b.support)
    total = math.fsum(abs(a.prob_of(z) - b.prob_of(z)) for z in points)
    return min(1.0, 0.5 * total)


def gaussian_shift_tv(delta: float, sigma: float) -> float:
    """TV distance between isotropic Gaussians of equal ``sigma`` at center distance ``delta``.

    Closed form 2 Phi(delta / (2 sigma)) - 1 = erf(delta / (2 sigma sqrt(2)));
    validated against a density-ratio Monte Carlo oracle in the test suite.
    Depends on delta/sigma only.
    """
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return math.erf(delta / (2.0 * sigma * math.sqrt(2.0)))


@dataclass(frozen=True)
class CoverResult:
    representatives: tuple
    indices: tuple
    radius: float


def build_representative_cover(family: Sequence[FiniteDistribution], k: int) -> CoverResult:
    """Greedy farthest-point k-center under TV distance.

    Deterministic: the first pick is the lowest index and ties go to the
    lowest index.  Returns the chosen representatives and the achieved
    radius max_u min_r TV(u, r).  Greedy is 2-approximate, which is enough
    here; only existence of a bounded-radius cover matters downstream.
    """
    members = list(family)
    if not members:
        raise ValueError("empty family")
    if k < 1:
        raise ValueError("k must be >= 1")
    chosen = [0]
    dist_to_cover = [tv_distance(u, members[0]) for u in members]
    while len(chosen) < min(k, len(members)):
        far = max(range(len(members)), key=lambda i: (dist_to_cover[i], -i))
        if dist_to_cover[far] <= 0.0:
            break
        chosen.append(far)
        for i, u in enumerate(members):
            d = tv_distance(u, members[far])
            if d < dist_to_cover[i]:
                dist_to_cover[i] = d
    radius = max(dist_to_cover)
    return CoverResult(tuple(members[i] for i in chosen), tuple(chosen), radius)


def pointwise_cover_violation(u: FiniteDistribution, rep_set: Sequence[FiniteDistribution]):
    """First support point of ``u`` whose mass exceeds the representative maximum.

    Returns ``None`` when ``u`` is pointwise dominated, else a tuple
    (point, u_prob, max_rep_prob).
    """
    reps = list(rep_set)
    for z, p in zip(u.support, u.probs):
        ceiling = max(r.prob_of(z) for r in reps)
        if p > ceiling + COVER_TOL:
            return (z, p, ceiling)
    return None
