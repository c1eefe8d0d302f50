"""Vectorized engine for finite tasks.

Because the losses only depend on how many draws land on each domain
point, an m-sample batch is summarized by its multinomial count vector and
whole trial sweeps become a handful of array contractions.  Behaviors are
enumerated once per run, on the full domain point set; they capture every
loss-relevant distinction a hypothesis class can make, which is what lets
the suites test "for every h in H" events exactly.

Two facts keep a sweep small.  Labels are +-1, so a y = -1 slot's mistakes
are its hits on the +1 labels and a y = +1 slot's are its batch size (m on
a member row, 0 on a padding row) less those hits.  ``dr_s`` therefore
sign-flips each slot's counts, appends the batch size as one more column,
and contracts every slot of a block of trials against a single (D + 1, B)
matrix.  A block holds k * (D + 1 + B) + 2 * B floats per slot, and is
sized to stay within ``DR_S_BLOCK_BYTES``; nothing grows with
B * slots * D.  And the behaviors a sample can tell apart are the
projections of the full-domain behaviors onto its points, with the same
scores, so ``erm_on_sample`` reads the per-trial ERM minimum off the score
matrix and asks the class which witness its enumeration on the sample
would have picked (``sample_witness`` in ``hypo``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..hypo import enumerate_behaviors
from ..perturb import FiniteDistribution, categorical

DR_S_BLOCK_BYTES = 32 << 20  # byte budget for the temporaries of one block of trials in dr_s


def _member_rows(counts: np.ndarray, sign: np.ndarray, positive: np.ndarray) -> np.ndarray:
    """(k * slots, D + 1) member-major rows of one block's slots for ``dr_s``.

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


class FiniteView:
    """Index-space view of a finite task: atoms, domain points, member tables."""

    def __init__(self, task, views: Sequence[str] = ("true",)):
        self.task = task
        self.views = tuple(views)
        self.points = task.domain_points(views=self.views)
        self.point_index = {z: d for d, z in enumerate(self.points)}
        atoms = task.atoms()
        self.atom_x = [x for x, _, _ in atoms]
        self.atom_y = np.array([y for _, y, _ in atoms])
        self.atom_p = np.array([p for _, _, p in atoms])
        self.atom_point_idx = np.array([self.point_index[x] for x in self.atom_x])
        self.n_atoms = len(atoms)
        self.n_points = len(self.points)
        self._members = {}
        for view in self.views:
            sizes = [len(task.members_for(x, view)) for x in self.atom_x]
            kmax = max(sizes)
            probs = np.zeros((self.n_atoms, kmax, self.n_points))
            valid = np.zeros((self.n_atoms, kmax), dtype=bool)
            for a, x in enumerate(self.atom_x):
                for j, u in enumerate(task.members_for(x, view)):
                    if not isinstance(u, FiniteDistribution):
                        raise ValueError("FiniteView requires finite members")
                    for z, q in zip(u.support, u.probs):
                        probs[a, j, self.point_index[z]] = q
                    valid[a, j] = True
            self._members[view] = (probs, valid)
        self.max_k = {view: self._members[view][0].shape[1] for view in self.views}

    def behaviors(self, hclass):
        """All behaviors on the full domain point set: (labels (B, D), witnesses)."""
        bs = enumerate_behaviors(hclass, self.points)
        labels = np.array([b.labels for b in bs], dtype=np.int8)
        return labels, [b.witness for b in bs]

    def mistakes(self, labels: np.ndarray) -> np.ndarray:
        """(B, atoms, points) indicator that a behavior mislabels a point for an atom."""
        return (labels[:, None, :] != self.atom_y[None, :, None]).astype(float)

    def dr_exact(self, labels: np.ndarray, view: str) -> np.ndarray:
        """Exact DR loss of each behavior: weighted worst member error per atom."""
        mist = self.mistakes(labels)
        probs, _ = self._members[view]
        member_loss = np.einsum("bad,akd->bak", mist, probs)
        return member_loss.max(axis=2) @ self.atom_p

    def draw_clean_slots(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` i.i.d. atom indices from the data distribution."""
        return categorical(self.atom_p, count, rng)

    def draw_slot_counts(self, rng: np.random.Generator, slot_atoms: np.ndarray,
                         m: int, view: str) -> np.ndarray:
        """Per-slot multinomial batch counts, one batch per (slot, member).

        Draw order is fixed by (atom, member), so results do not depend on
        how slots are arranged across trials.
        """
        probs, valid = self._members[view]
        kmax = probs.shape[1]
        counts = np.zeros((len(slot_atoms), kmax, self.n_points), dtype=np.int64)
        for a in range(self.n_atoms):
            idx = np.flatnonzero(slot_atoms == a)
            if len(idx) == 0:
                continue
            for j in range(kmax):
                if not valid[a, j]:
                    continue
                counts[idx, j, :] = rng.multinomial(m, probs[a, j], size=len(idx))
        return counts

    def dr_s(self, labels: np.ndarray, slot_atoms: np.ndarray, counts: np.ndarray,
             trials: int, n: int, m: int, with_scores: bool = False):
        """Empirical DR loss of each behavior on each trial's sample, exactly: (B, trials).

        ``slot_atoms`` and ``counts`` are flat over trials*n slots; padding
        member rows hold zero counts.  Each member row becomes its counts,
        negated on a slot labeled +1, followed by its batch size on such a
        slot and 0 otherwise.  Against ``plus`` ((D + 1, B): whether each
        behavior labels each point +1, over a row of ones) that row gives
        its mistake count, so one product per block of trials scores every
        slot.  With ``with_scores`` it returns ``(dr_s, scores)``;
        ``scores`` holds the same means summed in the ERM's order.
        """
        n_b, kmax, n_d = len(labels), counts.shape[1], counts.shape[2]
        plus = np.ones((n_d + 1, n_b))
        plus[:n_d] = labels.T == 1
        positive = self.atom_y[slot_atoms] == 1
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
            # report bytes depend on both: dr_s (it feeds max_gap and
            # viol_any) adds left to right, the ERM scores (they feed
            # loss_emp and the tie-break among minimizers) pairwise, as
            # numpy sums a contiguous axis.
            per_trial = worst.reshape(n_b, t1 - t0, n)
            out = dr[:, t0:t1]
            np.copyto(out, per_trial[:, :, 0])
            for i in range(1, n):
                out += per_trial[:, :, i]
            out /= n
            if with_scores:
                scores[:, t0:t1] = per_trial.mean(axis=2)
        return (dr, scores) if with_scores else dr

    def dr_s_exact_inner(self, labels: np.ndarray, slot_atoms: np.ndarray,
                         trials: int, n: int, view: str) -> np.ndarray:
        """Empirical loss with the inner averages replaced by exact expectations.

        Models the m -> infinity limit: only the clean-sample noise remains.
        """
        mist = self.mistakes(labels)
        probs, _ = self._members[view]
        worst = np.einsum("bad,akd->bak", mist, probs).max(axis=2)  # (B, atoms)
        return worst[:, slot_atoms].reshape(len(labels), trials, n).mean(axis=2)

    def labels_of(self, h) -> np.ndarray:
        """(1, D) labels of one hypothesis on the domain points."""
        return np.array([[h.predict(z) for z in self.points]], dtype=np.int8)

    def erm_on_sample(self, hclass, labels: np.ndarray, witnesses: list,
                      scores: np.ndarray, slot_atoms: np.ndarray, counts: np.ndarray):
        """Exact ERM restricted to the points one trial's sample contains.

        ``scores`` is the trial's column of ERM scores for the full-domain
        behaviors ``labels``/``witnesses``; ``slot_atoms`` and ``counts`` are
        the trial's slots.  The sampled points are the perturbation points
        plus the clean instances (clean points carry no loss).  The result
        is what enumerating behaviors on those points, scoring each and
        taking the first minimum in canonical order gives.  Returns
        (witness, min empirical loss).
        """
        seen = counts.any(axis=(0, 1))
        seen[self.atom_point_idx[slot_atoms]] = True
        best = scores.min()
        rows = np.flatnonzero(scores == best)
        witness = hclass.sample_witness(self.points, np.flatnonzero(seen), labels[rows],
                                        witnesses[rows[0]])
        return witness, float(best)
