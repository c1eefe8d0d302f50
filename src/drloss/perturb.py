"""Perturbation distributions, total-variation machinery, and cover models.

Finite-support distributions are the exact-computation backbone: every
worst-case-over-distributions loss on them is a finite sum, so brute-force
oracles are available throughout.  Gaussians are sampling-only and appear
where additive input noise is the perturbation model.

All types are immutable after construction and safe to share across
parallel workers; sampling always takes an explicit generator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

Point = Union[float, int, tuple]

RENORMALIZE_TOL = 1e-9
COVER_TOL = 1e-12
# word_index() counts raw words against the cuts of up to COUNT_MAX_K
# categories and binary-searches past that.  Per 40k words (2-core x86,
# numpy 2.4) 2 categories count in 0.03 ms against 0.31 searched, 8 in 0.15
# against 0.78, and counting stays ahead to about 64; per 1k words the
# search is ahead past 2 (8: 0.028 against 0.009 ms), which bounds it
COUNT_MAX_K = 8


class DistributionError(ValueError):
    """Invalid distribution construction or use."""


@dataclass(frozen=True)
class FiniteDistribution:
    """A probability distribution with finite support.

    Probabilities must be finite, nonnegative and sum to one within 1e-9;
    sums in that tolerance are renormalized exactly, anything further off
    is rejected.  Support points must be distinct and hashable (scalars or
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
        if not all(math.isfinite(p) for p in probs):
            raise DistributionError("non-finite probability")
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

    The center is a scalar (1-d) or a tuple of scalars, all finite; draws
    have the same shape.  ``sigma`` is positive and finite.  Exact
    summation is unavailable, so any computation over a Gaussian member
    goes through sampling.
    """

    center: Point
    sigma: float

    def __post_init__(self):
        if not (0 < self.sigma < math.inf):
            raise DistributionError("sigma must be positive and finite")
        c = self.center
        center = tuple(map(float, c)) if isinstance(c, tuple) else float(c)
        if not np.all(np.isfinite(center)):
            raise DistributionError("center must be finite")
        object.__setattr__(self, "center", center)


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


def word_cuts(p: np.ndarray) -> np.ndarray:
    """The ascending raw-word cuts of the probabilities ``p``, as ``np.uint64``.

    ``Generator.choice`` over ``len(p)`` maps a uniform u to the index
    ``cdf.searchsorted(u, "right")``, the number of j with u >= cdf[j],
    where ``cdf`` is the cumulative sum of ``p`` divided by its last entry.
    ``Generator.random`` turns each word x of ``rng.bit_generator.random_raw``
    into the double (x >> 11) * 2**-53, one of the k * 2**-53 for k < 2**53,
    so u >= c exactly when x >= ceil(c * 2**53) << 11 (a power-of-two
    scaling, so exact), and no word reaches c > 1 - 2**-53.  The cuts are
    those of cdf[:-1] that some word reaches; as the cdf does not decrease,
    they are a prefix of it.  ``p`` is taken as checked (nonnegative,
    summing to 1).
    """
    cdf = np.cumsum(p, dtype=float)
    cdf /= cdf[-1]
    k = np.ceil(np.ldexp(cdf[:-1], 53))
    return k[:np.count_nonzero(k < 2.0 ** 53)].astype(np.uint64) << np.uint64(11)


def word_index(cuts: np.ndarray, words: np.ndarray, out=None) -> np.ndarray:
    """The category of each raw word against ``word_cuts``: the number of cuts at or under it.

    For fewer than ``COUNT_MAX_K`` cuts (up to that many categories) the
    comparisons are summed directly, in the narrowest integer type that
    holds their number; past that a binary search is faster.  The indices
    are written to ``out`` (intp of the words' shape), or a new array, and
    returned.
    """
    if out is None:
        out = np.empty(words.shape, np.intp)
    if len(cuts) >= COUNT_MAX_K:
        out[...] = cuts.searchsorted(words, "right")
        return out
    idx = np.zeros(words.shape, np.min_scalar_type(len(cuts)))
    for cut in cuts:
        idx += words >= cut
    out[...] = idx
    return out


def word_tally(p: np.ndarray, values) -> tuple:
    """One integer (or bool) ``values`` entry per category as (first, [(step, cut), ...]).

    A raw word's category is the number of ``word_cuts(p)`` at or under it,
    so its value is ``values[0]`` plus the step values[j + 1] - values[j] of
    each cut j at or under it.  Zero steps are left out, and so are steps
    past the cuts, at cdf entries no word reaches.
    """
    values, cuts = np.asarray(values, np.int64), word_cuts(p)
    steps = np.diff(values)[:len(cuts)]
    at = steps.nonzero()[0]
    return int(values[0]), list(zip(steps[at].tolist(), cuts[at]))


def word_sum(tally: tuple, words: np.ndarray, axis=None):
    """``values[word_index(word_cuts(p), words)].sum(axis)`` from ``word_tally(p, values)``.

    One comparison count per step and no index array.  The whole array's
    sum is a Python int; a sum over ``axis`` is an int64 array.
    """
    first, steps = tally
    if axis is None:
        return first * words.size + sum(step * int(np.count_nonzero(words >= cut))
                                        for step, cut in steps)
    total = np.full(np.delete(words.shape, axis), first * words.shape[axis])
    for step, cut in steps:
        total += step * np.count_nonzero(words >= cut, axis=axis)
    return total


@functools.lru_cache(maxsize=None)
def _inversion_cuts(n: int, p: float) -> tuple:
    """(word cuts, bound) of numpy's ``random_binomial_inversion(n, p)``.

    numpy walks its uniform U down the pmf: X = 0, px = qn; while U > px,
    X += 1, U -= px, px = ((n - X + 1) p px) / (X q), in doubles, redrawing
    past ``bound``.  Each step is monotone in U, so X >= k from the least
    word at cut k - 1; the last cut, X = bound + 1, is the redraw, and cuts
    no word reaches are left out.  Each is bisected on the 2**53 doubles in
    a window around the pmf's fsum, whose ends are asserted.
    """
    q, np_ = 1.0 - p, n * p
    bound = int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))
    px = [math.exp(n * math.log(q))]
    for x in range(1, bound + 1):
        px.append(((n - x + 1) * p * px[-1]) / (x * q))

    def reaches(j: int, k: int) -> bool:  # X >= k from the double j * 2**-53
        u = j * 2.0 ** -53
        for step in px[:k]:
            if not u > step:
                return j == 1 << 53  # past every word
            u -= step
        return True

    cuts = []
    for k in range(1, bound + 2):
        c = math.ceil(math.ldexp(math.fsum(px[:k]), 53))
        lo, hi = min(max(c - k - 2, 0), (1 << 53) - 1), min(c + k + 2, 1 << 53)
        assert not reaches(lo, k) and reaches(hi, k), (n, p, k)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if reaches(mid, k) else (mid, hi)
        if hi == 1 << 53:
            break
        cuts.append(hi << 11)
    return _frozen(cuts), bound


@functools.lru_cache(maxsize=None)
def _first_limits(m: int, p: float):
    """Per dn <= m, floor(qn * 2**53): past it inversion(dn, p) gives X >= 1 (``None``: no word)."""
    lq = math.log(1.0 - p)
    limits = [math.floor(math.ldexp(min(math.exp(dn * lq), 1.0), 53)) for dn in range(m + 1)]
    return _frozen(limits) if min(limits[1:]) < 1 << 53 else None


def _frozen(values: list) -> np.ndarray:
    """A read-only uint64 array, safe to hand out from a cache."""
    out = np.array(values, np.uint64)
    out.flags.writeable = False
    return out


def skip_words(bitgen, count: int) -> None:
    """Advance ``bitgen`` past ``count`` raw words, to the state ``random_raw(count)`` leaves.

    An ``np.random.Philox`` skips in O(1): past the words left in its
    buffer, the whole 4-word blocks are added to its 256-bit counter
    through ``state`` (with the buffer spent), and the last 1-4 words are
    read, so the buffer holds their block.  ``Philox.advance`` is not used:
    it also drops the half word a 32-bit draw keeps (``uinteger``), which
    reading words leaves.  Any other bit generator reads the words.
    """
    if isinstance(bitgen, np.random.Philox):
        state = bitgen.state
        rest = count - (4 - state["buffer_pos"])  # words past the buffer
        blocks = (rest - 1) // 4  # whole blocks before the last word's
        if blocks > 0:
            counter = state["state"]["counter"]
            value = sum(int(v) << 64 * i for i, v in enumerate(counter)) + blocks
            counter[...] = [(value >> 64 * i) & ((1 << 64) - 1) for i in range(4)]
            state["buffer_pos"] = 4
            bitgen.state = state
            count = rest - 4 * blocks
    bitgen.random_raw(count, output=False)


def two_point_counts(m: int, p: np.ndarray, size: int, rng: np.random.Generator):
    """Each batch's count at a of ``rng.multinomial(m, p, size=size)``, for p nonzero at a < b only.

    The counts, and the state left in ``rng``, are numpy's, built from raw
    words as its ``random_multinomial`` draws them: binomial(m, p_a) takes
    one word (against ``_inversion_cuts``); a batch short of m at a takes
    one more for binomial(dn, p_b / (1 - p_a)), unless b is the last
    point, and that word must fall under its first cut (all dn at b).
    Returns ``None`` and takes no word where numpy would leave that path:
    a binomial past inversion (min(p, 1 - p) n > 30, numpy's BTPE), a
    redraw or a count past b.  ``p`` is taken as checked.
    """
    a, b = p.nonzero()[0]
    pa, pb = float(p[a]), float(p[b]) / (1.0 - float(p[a]))
    flip = pa > 0.5  # numpy draws binomial(m, 1 - p_a) and takes it from m
    pp, last = 1.0 - pa if flip else pa, b == len(p) - 1
    if m < 1 or size < 1 or pp * m > 30.0 or not last and (pb <= 0.5 or (1.0 - pb) * m > 30.0):
        return None
    cuts, bound = _inversion_cuts(m, pp)
    bitgen, state = rng.bit_generator, rng.bit_generator.state
    words = bitgen.random_raw(size if last else 2 * size)
    if last:
        x = word_index(cuts, words)
    else:
        # count m at a takes one word, the rest two: a batch starts after a
        # one-word first word, whatever that word's batch was, and from there
        # every other word
        if flip:
            whole = words < cuts[0] if len(cuts) else np.ones(len(words), bool)
        else:
            whole = words >= cuts[m - 1] if len(cuts) >= m else np.zeros(len(words), bool)
        pos = np.arange(len(words), dtype=np.int32)
        anchor = np.zeros(len(words), np.int32)
        np.multiply(pos[1:], whole[:-1], out=anchor[1:])
        np.maximum.accumulate(anchor, out=anchor)
        anchor ^= pos
        anchor &= 1
        starts = np.flatnonzero(anchor == 0)[:size]
        x, two = word_index(cuts, words[starts]), ~whole[starts]
    rare = len(cuts) > bound and x.max() > bound
    limits = None if last else _first_limits(m, 1.0 - pb)
    if not rare and limits is not None:
        dn = x[two] if flip else m - x[two]
        rare = ((words[starts[two] + 1] >> np.uint64(11)) > limits[dn]).any()
    if rare or not last:
        bitgen.state = state
        if rare:
            return None
        skip_words(bitgen, int(starts[-1] + 1 + two[-1]))
    return m - x if flip else x


def categorical(p: np.ndarray, size, rng: np.random.Generator, out=None) -> np.ndarray:
    """Indices of i.i.d. draws from the probabilities ``p``, of shape ``size``.

    The indices, and the words taken from ``rng``, are those of numpy's
    ``Generator.choice`` over ``len(p)`` with these probabilities: one raw
    word per draw, indexed against ``word_cuts(p)``.  The indices are
    written to ``out`` (intp of shape ``size``), or a new array, and
    returned.  ``p`` is taken as checked (nonnegative, summing to 1).
    """
    return word_index(word_cuts(p), rng.bit_generator.random_raw(size), out)


def sample(dist: PerturbationDistribution, count: int, rng: np.random.Generator) -> list:
    """Draw ``count`` i.i.d. points from ``dist``; deterministic given the rng state."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if isinstance(dist, FiniteDistribution):
        return [dist.support[i] for i in categorical(dist.prob_array(), count, rng)]
    if isinstance(dist, GaussianDistribution):
        if isinstance(dist.center, tuple):
            noise = rng.standard_normal((count, len(dist.center))) * dist.sigma
            return list(map(tuple, (np.asarray(dist.center) + noise).tolist()))
        noise = rng.standard_normal(count) * dist.sigma
        return (dist.center + noise).tolist()
    raise DistributionError(f"cannot sample from {type(dist).__name__}")


def tv_distance(a: FiniteDistribution, b: FiniteDistribution) -> float:
    """Total variation distance (1/2) sum |a(z) - b(z)| over the union of supports."""
    if not (isinstance(a, FiniteDistribution) and isinstance(b, FiniteDistribution)):
        raise DistributionError("TV distance needs finite distributions")
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
