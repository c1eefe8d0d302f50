"""Empirical and exact-population worst-case-over-distributions losses.

The central quantity is the distributional adversarial (DR) loss of a
classifier h: the expectation over clean labeled examples of the maximum,
across the example's perturbation distributions, of the expected 0-1 loss
under that distribution.  On finite tasks it is computed exactly by
summation.

``dr_scores`` scores many behaviors on finite samples at once, as one
integer contraction of per-batch member rows (signed counts and a batch
size column) against the behaviors' labels.  ``member_rows`` allocates the
rows in float32 while the batch size keeps every product exact.  Each
decision is made on exact integer mistake counts (zero training loss, the
ERM minimizers); float means are formed only for what the reports print.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .perturb import DistributionError, FiniteDistribution


@dataclass(frozen=True)
class TaskInstance:
    """A data distribution over labeled examples plus per-x perturbation families.

    ``data_dist`` is a finite distribution whose support points are (x, y)
    pairs; ``family_of`` maps every x appearing in that support to its
    family.  Families are keyed by the instance x alone, so label-noisy
    tasks (same x under both labels) share one family.
    """

    data_dist: FiniteDistribution
    family_of: Mapping

    def __post_init__(self):
        for (x, y) in self.data_dist.support:
            if y not in (-1, 1):
                raise ValueError(f"label {y!r} must be -1 or +1")
            if x not in self.family_of:
                raise ValueError(f"no distribution family for x={x!r}")

    def atoms(self) -> list:
        """(x, y, prob) triples of the data distribution."""
        return [(x, y, p) for (x, y), p in zip(self.data_dist.support, self.data_dist.probs)]

    def members_for(self, x, view: str) -> tuple:
        return self.family_of[x].members(view)

    def domain_points(self, views: Sequence[str] = ("true",)) -> list:
        """Sorted distinct instance points: clean x's plus all member supports."""
        pts = {x for x, _, _ in self.atoms()}
        for x, _, _ in self.atoms():
            for view in views:
                for u in self.members_for(x, view):
                    if isinstance(u, FiniteDistribution):
                        pts.update(u.support)
                    else:
                        raise DistributionError("domain enumeration requires finite members")
        return sorted(pts)

    def max_family_size(self, view: str = "true") -> int:
        return max(len(self.members_for(x, view)) for x, _, _ in self.atoms())


@dataclass(frozen=True)
class SampleSet:
    """A drawn training set: n clean examples plus m perturbations per family member.

    ``batches[i]`` holds clean example i's member batches in member order,
    each the m draws from that member, drawn once and shared by every
    hypothesis scored against this set.  Total size is at most n*m*k + n.
    """

    clean: tuple
    batches: tuple
    m: int

    def __post_init__(self):
        if not self.clean:
            raise ValueError("empty sample set")
        if len(self.batches) != self.n:
            raise ValueError(f"{len(self.batches)} batch entries for n={self.n} clean examples")
        for i, members in enumerate(self.batches):
            if not members:
                raise ValueError(f"clean example {i} has no batches")
            if any(len(batch) != self.m for batch in members):
                raise ValueError(f"clean example {i} has a batch of other than m={self.m} draws")

    @property
    def n(self) -> int:
        return len(self.clean)

    def all_points(self) -> list:
        """Distinct points of the set (clean instances and all perturbations), sorted."""
        pts = {x for x, _ in self.clean}
        for members in self.batches:
            for batch in members:
                pts.update(batch)
        return sorted(pts)


def empirical_dr_loss(h, s: SampleSet) -> float:
    """Average over clean examples of the worst per-member misclassified fraction.

    Clean points themselves carry no loss terms; they only matter for
    behavior enumeration upstream.
    """
    total = 0.0
    for (_, y), members in zip(s.clean, s.batches):
        total += max(sum(1 for z in batch if h.predict(z) != y) / s.m for batch in members)
    return total / s.n


# byte budget for the temporaries of one block of trials in dr_scores, and
# for the ERM suites' exact-inner gathers: about one core's L2, so a block's
# temporaries stay in cache and a run first-touches few fresh pages
DR_S_BLOCK_BYTES = 2 << 20
# the fewest slots in a block: a product of fewer columns runs OpenBLAS
# sgemm at about half its speed per FLOP, and a gather of fewer is mostly
# per-call overhead
DR_S_MIN_SLOTS = 200


def block_trials(n: int, trial_bytes: int) -> int:
    """Trials per block, for trials of n slots and ``trial_bytes`` of temporaries.

    As many as fit in ``DR_S_BLOCK_BYTES``, and at least ceil(``DR_S_MIN_SLOTS`` / n).
    """
    return max(-(-DR_S_MIN_SLOTS // n), DR_S_BLOCK_BYTES // trial_bytes)


def row_dtype(m: int):
    """The dtype of member rows for batches of m draws: float32 while m <= 2**24."""
    return np.float32 if m <= 1 << 24 else np.float64


def member_rows(kmax: int, slots: int, n_points: int, m: int) -> np.ndarray:
    """Zeroed (k, slots, D + 1) rows for batches of m draws, for ``put_member_rows``.

    float32 while m <= 2**24, else float64.  A row holds counts summing to
    m, or negated counts summing to -m beside one m, and ``dr_scores``
    multiplies it by 0/1 entries: every partial sum is an integer of
    magnitude at most m, which float32 holds exactly in any summation order.
    """
    return np.zeros((kmax, slots, n_points + 1), row_dtype(m))


def _fresh(name: str, shape: tuple, dtype) -> np.ndarray:
    """``dr_scores``'s default workspace: a new array."""
    return np.empty(shape, dtype)


def put_member_rows(rows: np.ndarray, j: int, slots, counts, positive: bool, m: int) -> None:
    """Write member j's batches of ``slots`` into ``rows`` as ``dr_scores`` multiplies them.

    ``counts`` are the batches' counts on the D points, one row per slot or
    one row for all of them; ``positive`` says the slots are labeled +1.
    The function consumes ``counts``: a positive slot's are negated in
    place, so callers pass a fresh array.  ``rows`` starts zeroed, or from
    ``FiniteView``'s row template, so a member never written stays a padding row.
    """
    rows[j, slots, :-1] = np.negative(counts, out=counts) if positive else counts
    if positive:
        rows[j, slots, -1] = m


class Scores(NamedTuple):
    """(B, trials) mistake counts W, ERM minimizers and float losses; see ``dr_scores``."""

    hits: np.ndarray
    ties: np.ndarray | None
    loss_emp: np.ndarray | None  # (trials,): the minimizers' float loss
    dr: np.ndarray | None


def erm_ties(hits: np.ndarray, gather, n: int, m: int, ties: np.ndarray) -> np.ndarray:
    """Mark each trial's ERM minimizers in ``ties`` (B, trials); return their float losses.

    A float loss is the pairwise mean of n quotients count / m; the
    minimizers are the behaviors at its least, as a float argmin finds them.
    ``gather(b, t)`` gives the (c, n) counts of the candidates only: the
    least W while n * m * (n + 1) < 2**52, else every behavior.  Below that
    bound W < W' orders the floats: n + 1 roundings of nonnegative terms put
    a float loss within a factor 1 +- gamma(n + 1) of W / (n * m), gamma(k) =
    k u / (1 - k u) with u = 2**-53, and W' <= n * m gives
    (2 n m - 1) gamma(n + 1) < 1.  Equal W is broken on the floats.
    """
    exact_order = n * m * (n + 1) < 1 << 52
    t, b = np.nonzero((hits == hits.min(axis=0) if exact_order else np.ones(hits.shape, bool)).T)
    means = np.divide(gather(b, t), m, dtype=float).mean(axis=1)
    loss_emp = np.minimum.reduceat(means, np.flatnonzero(np.diff(t, prepend=-1)))
    tie = means == loss_emp[t]
    ties[...] = False
    ties[b[tie], t[tie]] = True
    return loss_emp


def dr_scores(labels: np.ndarray, rows: np.ndarray, trials: int, n: int, m: int,
              ties: bool = True, dr: bool = False, buffer=_fresh) -> Scores:
    """Each behavior's exact mistake count W on each trial's sample, and the ERM minimizers.

    ``labels`` (B, D) holds each behavior's +-1 labels.  ``rows`` (k, slots,
    D + 1) holds member j's batch of slot i at (j, i), flat over trials * n
    slots: a y = -1 slot's mistakes are its hits on the +1 labels, a y = +1
    slot's its batch size less those hits.  So a row is the batch's counts,
    negated on a positive slot, then its batch size m there and 0 elsewhere
    (``put_member_rows`` writes them into ``member_rows``); a zero row pads
    a missing member.  One product with ``plus`` ((D + 1, B): each
    behavior's +1 indicator over a row of ones) per member and block of
    trials scores every slot, and with k = 1 there is no max over members.
    The products and their max stay in the rows' dtype, where they are
    exact integers, and sum to W exactly: in float32 while n * m <= 2**24,
    else in float64 (to 2**53).  Decisions are made on W: zero training loss
    is W == 0, and with ``ties``, ``erm_ties`` picks the minimizers from the
    least W.
    Float losses are formed only for the reports: ``loss_emp``, and with
    ``dr`` every behavior's, summed left to right.  ``block_trials`` sizes
    a block: its temporaries within ``DR_S_BLOCK_BYTES``, unless a wide B
    would leave its products fewer than ``DR_S_MIN_SLOTS`` columns.

    ``buffer(name, shape, dtype)`` supplies the results and each block's
    products ``worst``: the default allocates them, ``FiniteView`` hands in
    arrays it keeps.  The float64 quotients stay fresh, or they would sit
    beside all that the caller allocates after the call.  Every division
    by m needs ``dtype=float``, or numpy divides float32 products in float32.
    """
    n_b, kmax, n_d = len(labels), rows.shape[0], rows.shape[2] - 1
    plus = np.ones((n_d + 1, n_b), rows.dtype)
    plus[:n_d] = labels.T == 1
    ones = np.ones(n, rows.dtype) if n * m <= 1 << 24 or rows.itemsize == 8 else None
    # a block's temporaries, per slot: the worst hit row of B and, with k > 1,
    # the next member's, in the rows' dtype, then the float64 quotients of
    # the ERM candidates (every behavior at worst)
    block = block_trials(n, n * n_b * (rows.itemsize * (1 + (kmax > 1)) + 8))
    hits = buffer("hits", (n_b, trials), np.int64)
    minimizers = buffer("ties", (n_b, trials), bool) if ties else None
    loss_emp = buffer("loss_emp", (trials,), float) if ties else None
    out = buffer("dr", (n_b, trials), float) if dr else None
    for t0 in range(0, trials, block):
        t1 = min(t0 + block, trials)
        s0, s1 = t0 * n, t1 * n
        # integer counts times 0/1 entries: exact in any summation order
        worst = np.matmul(plus.T, rows[0, s0:s1].T, out=buffer("worst", (n_b, s1 - s0), rows.dtype))
        for j in range(1, kmax):
            np.maximum(worst, plus.T @ rows[j, s0:s1].T, out=worst)
        per_slot = worst.reshape(-1, n)
        hits[:, t0:t1] = (per_slot @ ones if ones is not None
                          else per_slot.sum(axis=1, dtype=float)).reshape(n_b, -1)
        per_trial = worst.reshape(n_b, -1, n)
        if ties:
            loss_emp[t0:t1] = erm_ties(hits[:, t0:t1], lambda b, t: per_trial[b, t], n, m,
                                       minimizers[:, t0:t1])
        if dr:  # left to right, one slot's quotients at a time
            block_dr = out[:, t0:t1]
            np.divide(per_trial[:, :, 0], m, out=block_dr, dtype=float)
            for i in range(1, n):
                block_dr += np.divide(per_trial[:, :, i], m, dtype=float)
            block_dr /= n
    return Scores(hits, minimizers, loss_emp, out)


def member_error(h, u: FiniteDistribution, y) -> float:
    """Exact probability that ``h`` mislabels a draw from the finite member ``u``."""
    return math.fsum(q for z, q in zip(u.support, u.probs) if h.predict(z) != y)


def population_dr_loss_exact(h, task: TaskInstance, view: str = "true") -> float:
    """Exact DR loss by direct summation; requires finite family members."""
    total = 0.0
    for x, y, p in task.atoms():
        worst = 0.0
        for u in task.members_for(x, view):
            if not isinstance(u, FiniteDistribution):
                raise DistributionError("exact DR loss needs finite members")
            worst = max(worst, member_error(h, u, y))
        total += p * worst
    return total

