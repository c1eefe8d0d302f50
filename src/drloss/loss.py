"""Empirical, exact-population, and Monte Carlo worst-case-over-distributions losses.

The central quantity is the distributional adversarial (DR) loss of a
classifier h: the expectation over clean labeled examples of the maximum,
across the example's perturbation distributions, of the expected 0-1 loss
under that distribution.  On finite tasks it is computed exactly by
summation; with Gaussian members a Monte Carlo estimate with a standard
error is used instead.

``dr_scores`` scores many behaviors on finite samples at once, as one
integer contraction of per-batch counts against the behaviors' labels.
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

    def is_finite(self, view: str = "true") -> bool:
        """True when every family member in ``view`` has finite support."""
        return all(
            isinstance(u, FiniteDistribution)
            for x, _, _ in self.atoms()
            for u in self.members_for(x, view)
        )

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


def _member_rows(counts: np.ndarray, sign: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """(k * slots, D + 1) member-major rows of one block's slots for ``dr_scores``.

    Member-major, so the max over members runs over whole slot rows.
    """
    kmax, n_d = counts.shape[1], counts.shape[2]
    rows = np.empty((kmax, len(counts), n_d + 1))
    np.multiply(counts.transpose(1, 0, 2), sign[:, None], out=rows[:, :, :n_d])
    flat = rows.reshape(-1, n_d + 1)
    # a negated row sums to minus its batch size
    np.matmul(flat[:, :n_d], -np.ones(n_d), out=flat[:, n_d])
    rows[:, :, n_d] *= positive
    return flat


def dr_scores(labels: np.ndarray, positive: np.ndarray, counts: np.ndarray,
              trials: int, n: int, m: int, with_scores: bool = False):
    """Empirical DR loss of each behavior on each trial's sample, exactly: (B, trials).

    ``labels`` (B, D) holds each behavior's +-1 labels; ``positive``
    (slots,) marks the slots labeled +1 and ``counts`` (slots, k, D) their
    batches, flat over trials * n slots, zero rows padding missing members.
    A y = -1 slot's mistakes are its hits on the +1 labels, a y = +1 slot's
    its batch size less those hits.  So each member row becomes its counts,
    negated on a positive slot, then its batch size there and 0 elsewhere,
    and one product with ``plus`` ((D + 1, B): each behavior's +1 indicator
    over a row of ones) per block of trials scores every slot.  A block
    stays within ``DR_S_BLOCK_BYTES``.  With ``with_scores`` it returns
    ``(dr, scores)``, the same means summed in the ERM's order.
    """
    n_b, kmax, n_d = len(labels), counts.shape[1], counts.shape[2]
    plus = np.ones((n_d + 1, n_b))
    plus[:n_d] = labels.T == 1
    sign = 1.0 - 2.0 * positive
    # a block's temporaries, per slot: k member rows of D + 1 and k hit rows
    # of B, then the worst row and the previous block's or the scores' mean
    block = max(1, DR_S_BLOCK_BYTES // (8 * n * (kmax * (n_d + 1 + n_b) + 2 * n_b)))
    dr = np.empty((n_b, trials))
    scores = np.empty((n_b, trials)) if with_scores else None
    for t0 in range(0, trials, block):
        t1 = min(t0 + block, trials)
        s0, s1 = t0 * n, t1 * n
        # integer counts times 0/1 entries: exact in any summation order
        hits = plus.T @ _member_rows(counts[s0:s1], sign[s0:s1], positive[s0:s1]).T
        worst = hits.reshape(n_b, kmax, s1 - s0).max(axis=1)
        del hits  # freed before the next block allocates its own
        worst /= m
        # The two means sum the same n values in different orders, and
        # report bytes depend on both: dr (it feeds max_gap and viol_any)
        # adds left to right, the ERM scores (they feed loss_emp and the
        # tie-break among minimizers) pairwise, as numpy sums a contiguous
        # axis.
        per_trial = worst.reshape(n_b, t1 - t0, n)
        out = dr[:, t0:t1]
        np.copyto(out, per_trial[:, :, 0])
        for i in range(1, n):
            out += per_trial[:, :, i]
        out /= n
        if with_scores:
            scores[:, t0:t1] = per_trial.mean(axis=2)
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


def adversarial_point_loss(classifier, x, y, a_set: Sequence, trials: int,
                           rng: np.random.Generator = None) -> float:
    """Worst expected error over the attack set A(x) for a randomized classifier.

    ``trials=0`` requests exact enumeration over a finite randomness
    distribution; otherwise one shared batch of ``trials`` randomness draws
    is evaluated at every attack point.
    """
    a_set = list(a_set)
    if not a_set:
        raise ValueError("attack set must be nonempty")
    if trials == 0:
        dist = classifier.randomness
        if not isinstance(dist, FiniteDistribution):
            raise DistributionError("exact enumeration needs finite randomness")
        return max(
            math.fsum(q for r, q in zip(dist.support, dist.probs)
                      if classifier.evaluate(xp, r) != y)
            for xp in a_set
        )
    if rng is None:
        raise ValueError("rng required when trials > 0")
    draws = sample(classifier.randomness, trials, rng)
    return max(
        sum(1 for r in draws if classifier.evaluate(xp, r) != y) / trials
        for xp in a_set
    )
