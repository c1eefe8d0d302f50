"""Empirical, exact-population, and Monte Carlo worst-case-over-distributions losses.

The central quantity is the distributional adversarial (DR) loss of a
classifier h: the expectation over clean labeled examples of the maximum,
across the example's perturbation distributions, of the expected 0-1 loss
under that distribution.  On finite tasks it is computed exactly by
summation; with Gaussian members a Monte Carlo estimate with a standard
error is used instead.

``dr_scores`` scores many behaviors on finite samples at once, as one
integer contraction of per-batch member rows (signed counts and a batch
size column) against the behaviors' labels.  ``member_rows`` allocates the
rows in float32 while the batch size keeps every product exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .perturb import (
    DistributionError,
    FiniteDistribution,
    GaussianDistribution,
    sample,
)

Example = tuple  # (x, y) with y in {-1, +1}


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

    ``perturbed[(i, j)]`` holds the m draws for clean example i and its
    family member j, each batch drawn once and shared by every hypothesis
    scored against this set.  Total size is at most n*m*k + n.
    """

    clean: tuple
    perturbed: Mapping
    m: int
    sampled_from: str = "true"

    def __post_init__(self):
        if not self.clean:
            raise ValueError("empty sample set")
        members = {i: set() for i in range(self.n)}
        for key, batch in self.perturbed.items():
            if not (isinstance(key, tuple) and len(key) == 2 and key[0] in members):
                raise ValueError(f"batch key {key!r} is not (i, j) with 0 <= i < n={self.n}")
            members[key[0]].add(key[1])
            if len(batch) != self.m:
                raise ValueError(f"batch {key} has {len(batch)} draws, expected m={self.m}")
        for i, js in members.items():
            if not js or js != set(range(len(js))):
                raise ValueError(f"clean example {i} has members {sorted(js, key=repr)}, "
                                 "expected 0, ..., k - 1 with k >= 1")

    @property
    def n(self) -> int:
        return len(self.clean)

    def all_points(self) -> list:
        """Distinct points of the set (clean instances and all perturbations), sorted."""
        pts = {x for x, _ in self.clean}
        for batch in self.perturbed.values():
            pts.update(batch)
        return sorted(pts)


def empirical_dr_loss(h, s: SampleSet) -> float:
    """Average over clean examples of the worst per-member misclassified fraction.

    Clean points themselves carry no loss terms; they only matter for
    behavior enumeration upstream.
    """
    total = 0.0
    for i, (x, y) in enumerate(s.clean):
        worst = 0.0
        j = 0
        while (i, j) in s.perturbed:
            batch = s.perturbed[(i, j)]
            wrong = sum(1 for z in batch if h.predict(z) != y)
            worst = max(worst, wrong / s.m)
            j += 1
        total += worst
    return total / s.n


DR_S_BLOCK_BYTES = 32 << 20  # byte budget for the temporaries of one block of trials in dr_scores


def member_rows(kmax: int, slots: int, n_points: int, m: int) -> np.ndarray:
    """Zeroed (k, slots, D + 1) rows for batches of m draws, for ``put_member_rows``.

    float32 while m <= 2**24, else float64.  A row holds counts summing to
    m, or negated counts summing to -m beside one m, and ``dr_scores``
    multiplies it by 0/1 entries: every partial sum is an integer of
    magnitude at most m, which float32 holds exactly in any summation order.
    """
    return np.zeros((kmax, slots, n_points + 1), np.float32 if m <= 1 << 24 else np.float64)


def put_member_rows(rows: np.ndarray, j: int, slots, counts, positive: bool, m: int) -> None:
    """Write member j's batches of ``slots`` into ``rows`` as ``dr_scores`` multiplies them.

    ``counts`` are the batches' counts on the D points, one row per slot or
    one row for all of them; ``positive`` says the slots are labeled +1.
    The function consumes ``counts``: a positive slot's are negated in
    place, so callers pass a fresh array.  ``rows`` starts zeroed, so a
    member never written stays a padding row.
    """
    rows[j, slots, :-1] = np.negative(counts, out=counts) if positive else counts
    if positive:
        rows[j, slots, -1] = m


def dr_scores(labels: np.ndarray, rows: np.ndarray, trials: int, n: int, m: int,
              with_scores: bool = False):
    """Empirical DR loss of each behavior on each trial's sample, exactly: (B, trials).

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
    exact integers, and are divided by m into float64 once.  A block
    stays within ``DR_S_BLOCK_BYTES``.  With ``with_scores`` it returns
    ``(dr, scores)``, the same means summed in the ERM's order.
    """
    n_b, kmax, n_d = len(labels), rows.shape[0], rows.shape[2] - 1
    plus = np.ones((n_d + 1, n_b), rows.dtype)
    plus[:n_d] = labels.T == 1
    # a block's temporaries, per slot: the worst hit row of B and, with k > 1,
    # the next member's, in the rows' dtype, then the float64 losses
    block = max(1, DR_S_BLOCK_BYTES // (n * n_b * (rows.itemsize * (1 + (kmax > 1)) + 8)))
    dr = np.empty((n_b, trials))
    scores = np.empty((n_b, trials)) if with_scores else None
    for t0 in range(0, trials, block):
        t1 = min(t0 + block, trials)
        s0, s1 = t0 * n, t1 * n
        # integer counts times 0/1 entries: exact in any summation order
        worst = plus.T @ rows[0, s0:s1].T
        for j in range(1, kmax):
            np.maximum(worst, plus.T @ rows[j, s0:s1].T, out=worst)
        # The two means sum the same n values in different orders, and
        # report bytes depend on both: dr (it feeds max_gap and viol_any)
        # adds left to right, the ERM scores (they feed loss_emp and the
        # tie-break among minimizers) pairwise, as numpy sums a contiguous
        # axis.
        per_trial = np.divide(worst, m, dtype=float).reshape(n_b, t1 - t0, n)
        out = dr[:, t0:t1]
        np.copyto(out, per_trial[:, :, 0])
        for i in range(1, n):
            out += per_trial[:, :, i]
        out /= n
        if with_scores:
            scores[:, t0:t1] = per_trial.mean(axis=2)
        del worst, per_trial  # freed before the next block allocates its own
    return (dr, scores) if with_scores else dr


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
                raise DistributionError("exact DR loss needs finite members; use the Monte Carlo estimator")
            worst = max(worst, member_error(h, u, y))
        total += p * worst
    return total


class McEstimate(NamedTuple):
    value: float
    stderr: float


def population_dr_loss_mc(h, task: TaskInstance, n: int, m: int,
                          rng: np.random.Generator, view: str = "true") -> McEstimate:
    """Monte Carlo DR loss: n clean draws, one m-sample batch per (x, member) pair.

    Batches are shared across repeated clean draws of the same x (one batch
    per pair, never fresh batches per hypothesis).  The reported standard
    error combines the per-example variance of the outer average with the
    binomial noise of each argmax member's batch; the latter uses the
    (count + 1/2)/(m + 1) variance estimate so it never degenerates to zero
    on one-sided batches.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    atoms = task.atoms()
    probs = np.array([p for _, _, p in atoms])
    counts = rng.multinomial(n, probs)

    values = np.zeros(len(atoms))
    inner_var = np.zeros(len(atoms))
    for a, (x, y, _) in enumerate(atoms):
        best_val = -1.0
        best_var = 0.0
        for u in task.members_for(x, view):
            if isinstance(u, FiniteDistribution):
                draw = rng.multinomial(m, u.prob_array())
                wrong = int(sum(c for z, c in zip(u.support, draw) if h.predict(z) != y))
            elif isinstance(u, GaussianDistribution):
                wrong = sum(1 for z in sample(u, m, rng) if h.predict(z) != y)
            else:
                raise DistributionError(f"cannot sample member of type {type(u).__name__}")
            p_hat = wrong / m
            if p_hat > best_val:
                p_smooth = (wrong + 0.5) / (m + 1)
                best_val = p_hat
                best_var = p_smooth * (1.0 - p_smooth) / m
        values[a] = best_val
        inner_var[a] = best_var

    weights = counts / n
    value = float(weights @ values)
    if n > 1:
        outer_var = float(counts @ (values - value) ** 2) / (n - 1)
    else:
        outer_var = 0.0
    stderr = math.sqrt(outer_var / n + float(weights ** 2 @ inner_var))
    return McEstimate(value, stderr)
