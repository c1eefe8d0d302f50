"""Vectorized engine for finite tasks.

Because the losses only depend on how many draws land on each domain
point, an m-sample batch is summarized by its multinomial count vector and
whole trial sweeps become a handful of array contractions.  Behaviors
enumerated on the full domain point set capture every loss-relevant
distinction a hypothesis class can make, which is what lets the suites
test "for every h in H" events exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..hypo import enumerate_behaviors
from ..perturb import FiniteDistribution


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
             trials: int, n: int, m: int) -> np.ndarray:
        """Empirical DR loss of each behavior on each trial's sample, exactly.

        ``slot_atoms`` and ``counts`` are flat over trials*n slots.  Invalid
        member rows hold zero counts and cannot affect the max (losses are
        nonnegative).
        """
        mist = self.mistakes(labels)[:, slot_atoms, :]
        per_member = np.einsum("bnd,nkd->bnk", mist, counts.astype(float)) / m
        worst = per_member.max(axis=2).reshape(len(labels), trials, n)
        return worst.mean(axis=2)

    def dr_s_exact_inner(self, labels: np.ndarray, slot_atoms: np.ndarray,
                         trials: int, n: int, view: str) -> np.ndarray:
        """Empirical loss with the inner averages replaced by exact expectations.

        Models the m -> infinity limit: only the clean-sample noise remains.
        """
        mist = self.mistakes(labels)
        probs, _ = self._members[view]
        worst = np.einsum("bad,akd->bak", mist, probs).max(axis=2)  # (B, atoms)
        return worst[:, slot_atoms].reshape(len(labels), trials, n).mean(axis=2)

    def erm_on_sample(self, hclass, slot_atoms: np.ndarray, counts: np.ndarray, m: int):
        """Exact ERM restricted to the points this sample actually contains.

        Enumerates behaviors on the sampled perturbation points plus the
        clean instances (clean points join enumeration but carry no loss),
        scores each, and picks the first minimum in canonical order.
        Returns (witness, min empirical loss, witness labels on the full
        domain point set).
        """
        seen = counts.sum(axis=(0, 1)) > 0
        seen[self.atom_point_idx[slot_atoms]] = True
        sub_idx = np.flatnonzero(seen)
        sub_points = [self.points[d] for d in sub_idx]
        behaviors = enumerate_behaviors(hclass, sub_points)
        labels_sub = np.array([b.labels for b in behaviors], dtype=np.int8)
        y_slots = self.atom_y[slot_atoms]
        mist = (labels_sub[:, None, :] != y_slots[None, :, None]).astype(float)
        per_member = np.einsum("bnd,nkd->bnk", mist, counts[:, :, sub_idx].astype(float)) / m
        scores = per_member.max(axis=2).mean(axis=1)
        best = int(np.argmin(scores))
        witness = behaviors[best].witness
        full_labels = np.array([[witness.predict(z) for z in self.points]], dtype=np.int8)
        return witness, float(scores[best]), full_labels
