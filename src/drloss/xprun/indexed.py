"""Vectorized engine for finite tasks.

Because the losses only depend on how many draws land on each domain
point, an m-sample batch is summarized by its multinomial count vector and
whole trial sweeps become a handful of array contractions.  Behaviors are
enumerated once per run, on the full domain point set; they capture every
loss-relevant distinction a hypothesis class can make, which is what lets
the suites test "for every h in H" events exactly.

Two facts keep a sweep small.  A slot's mistake row depends only on its
atom, so ``dr_s`` contracts each atom's (B, D) mistake matrix against that
atom's slot counts, a block of trials at a time within
``DR_S_BLOCK_BYTES``: its peak grows with B * slots * k, not
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
from ..perturb import FiniteDistribution

DR_S_BLOCK_BYTES = 32 << 20  # byte budget for the temporaries of one block of trials in dr_s


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
        return rng.choice(self.n_atoms, size=count, p=self.atom_p)

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

        ``slot_atoms`` and ``counts`` are flat over trials*n slots.  Invalid
        member rows hold zero counts and cannot affect the max (losses are
        nonnegative).  With ``with_scores`` it returns ``(dr_s, scores)``;
        ``scores`` holds the same means summed in the ERM's order.
        """
        n_b, kmax, n_d = len(labels), counts.shape[1], counts.shape[2]
        mistakes_t = {y: (labels != y).T.astype(float) for y in (-1, 1)}  # (D, B)
        block = max(1, DR_S_BLOCK_BYTES // (8 * n * n_b * (kmax + 2)))
        dr = np.empty((n_b, trials))
        scores = np.empty((n_b, trials)) if with_scores else None
        for t0 in range(0, trials, block):
            t1 = min(t0 + block, trials)
            atoms = slot_atoms[t0 * n:t1 * n]
            worst = np.empty((len(atoms), n_b))  # slot-major, as the sums below need
            for a in np.unique(atoms):
                idx = np.flatnonzero(atoms == a)
                c = counts[t0 * n + idx].reshape(-1, n_d).astype(float)
                # integer counts times 0/1 mistakes: exact in any summation order
                hits = c @ mistakes_t[int(self.atom_y[a])]
                worst[idx] = hits.reshape(len(idx), kmax, n_b).max(axis=1)
            worst /= m
            # The two means sum the same n values in different orders, and
            # report bytes depend on both: over the strided slot axis numpy
            # adds left to right (dr_s feeds max_gap and viol_any), over a
            # contiguous axis it sums pairwise (the ERM scores feed loss_emp
            # and the tie-break among minimizers).
            dr[:, t0:t1] = worst.T.reshape(n_b, t1 - t0, n).mean(axis=2)
            if with_scores:
                contiguous = np.ascontiguousarray(worst.T).reshape(n_b, t1 - t0, n)
                scores[:, t0:t1] = contiguous.mean(axis=2)
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
