"""Vectorized engine for finite tasks.

Because the losses only depend on how many draws land on each domain
point, an m-sample batch is summarized by its multinomial count vector and
whole trial sweeps become a handful of array contractions.  Behaviors are
enumerated once per run, on the full domain point set, as the class's
behavior table (``behavior_table`` in ``hypo``: (B, D) int8 labels and the
witnesses); they capture every loss-relevant distinction a hypothesis class
can make, which is what lets the suites test "for every h in H" events
exactly.

``draw_slot_counts`` writes each multinomial batch straight into the
member row that ``loss.dr_scores`` multiplies (signed counts and a batch
size column, float32 while m <= 2**24: ``loss.member_rows``); no count
tensor is kept beside the rows.  The contraction and its cache-sized
blocks of trials (``loss.block_trials``) live in ``loss.dr_scores``, which
``learner.drerm`` runs too.  It decides on exact integer mistake counts W,
summed in float32 while n * m <= 2**24 and in float64 beyond: zero training
loss is W == 0, and each trial's ERM minimizers are the least W,
tie-broken on float means (past n * m * (n + 1) >= 2**52, where a float
mean may misorder W, every behavior is a candidate).  The behaviors a
sample can tell apart are the projections of the full-domain behaviors
onto its points, with the same counts, so ``erm_on_sample`` takes
a trial's minimizers and asks the class which witness its enumeration on
the sample's points (``seen_points``) would have picked (``sample_witness``
in ``hypo``).  The witness depends on nothing but the minimizers and the
seen points, so the ERM suites call it once per distinct pair.

Point masses and two-point members skip numpy's multinomial in
``draw_slot_counts`` with the same counts and stream: a two-point member's
counts come from raw words (``perturb.two_point_counts``), and the words a
point mass would take are skipped in O(1) (``perturb.skip_words``).

A view keeps named scratch arrays (``buffer``) that grow on demand, so a
run's batches reuse one set of slot draws, member rows and ``dr_scores``
workspace; each ``--jobs`` worker builds its own setup and view.  An array
that ``draw_clean_slots``, ``draw_slot_counts`` or ``dr_s`` returns is the
view's scratch: it stays valid only until that method next runs on the
view, so a caller that needs it longer reduces or copies it first.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..loss import dr_scores, put_member_rows, row_dtype
from ..perturb import categorical, skip_words, two_point_counts


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
        self._point_mass = {}
        self._two_point = {}
        for view in self.views:
            sizes = [len(task.members_for(x, view)) for x in self.atom_x]
            kmax = max(sizes)
            probs = np.zeros((self.n_atoms, kmax, self.n_points))
            valid = np.zeros((self.n_atoms, kmax), dtype=bool)
            for a, x in enumerate(self.atom_x):
                for j, u in enumerate(task.members_for(x, view)):
                    for z, q in zip(u.support, u.probs):
                        probs[a, j, self.point_index[z]] = q
                    valid[a, j] = True
            self._members[view] = (probs, valid)
            # the point of each member that is a point mass, else -1
            nonzero = np.count_nonzero(probs, axis=2)
            single = (nonzero == 1) & (probs.max(axis=2) == 1.0)
            self._point_mass[view] = np.where(single, probs.argmax(axis=2), -1)
            self._two_point[view] = nonzero == 2
        self.max_k = {view: self._members[view][0].shape[1] for view in self.views}
        self._templates = {}
        self._scratch = {}

    def behaviors(self, hclass):
        """All behaviors on the full domain point set: (labels (B, D) int8, witnesses)."""
        return hclass.behavior_table(self.points)

    def mistakes(self, labels: np.ndarray) -> np.ndarray:
        """(B, atoms, points) indicator that a behavior mislabels a point for an atom."""
        return (labels[:, None, :] != self.atom_y[None, :, None]).astype(float)

    def worst_member(self, labels: np.ndarray, view: str) -> np.ndarray:
        """(B, atoms) exact worst-member errors, each 0 iff no point with mass is mislabeled."""
        probs, _ = self._members[view]
        return np.einsum("bad,akd->bak", self.mistakes(labels), probs).max(axis=2)

    def dr_exact(self, labels: np.ndarray, view: str) -> np.ndarray:
        """Exact DR loss of each behavior: weighted worst member error per atom."""
        return self.worst_member(labels, view) @ self.atom_p

    def buffer(self, name: str, shape: tuple, dtype) -> np.ndarray:
        """The view's scratch array ``name`` as ``shape``, uninitialized; kept for reuse."""
        size = math.prod(shape)
        buf = self._scratch.get(name)
        if buf is None or buf.dtype != dtype or buf.size < size:
            buf = self._scratch[name] = np.empty(size, dtype)
        return buf[:size].reshape(shape)

    def draw_clean_slots(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` i.i.d. atom indices from the data distribution, in the view's scratch."""
        return categorical(self.atom_p, count, rng, out=self.buffer("slots", (count,), np.intp))

    def _row_template(self, view: str, m: int) -> np.ndarray:
        """(k, atoms, D + 1) member rows each slot of an atom starts from; one per (view, m).

        Final for point-mass members (m at the point) and padding rows (0);
        a multinomial member's row has only the batch size column, m on a
        y = +1 atom.
        """
        template = self._templates.get((view, m))
        if template is None:
            probs, valid = self._members[view]
            template = np.zeros((probs.shape[1], self.n_atoms, self.n_points + 1), row_dtype(m))
            for a, j in zip(*np.nonzero(valid)):
                positive = self.atom_y[a] == 1
                if self._point_mass[view][a, j] >= 0:
                    template[j, a, :-1] = -m * probs[a, j] if positive else m * probs[a, j]
                if positive:
                    template[j, a, -1] = m
            self._templates[(view, m)] = template
        return template

    def draw_slot_counts(self, rng: np.random.Generator, slot_atoms: np.ndarray,
                         m: int, view: str) -> np.ndarray:
        """(k, slots, D + 1) member rows of the slots' multinomial batches, for ``dr_s``.

        Row (j, i) is slot i's member-j batch of m draws as ``loss.dr_scores``
        multiplies it (``loss.put_member_rows``); a member the slot's atom
        lacks leaves a zero row.  Draw order is fixed by (atom, member), one
        ``rng.multinomial(m, member, size=slots of the atom)`` each, so results
        do not depend on how slots are arranged across trials.  A point-mass
        member is not drawn: numpy's multinomial returns m at its point,
        taking one uniform per batch there, or none at the last point, so
        every batch is m times the member and the stream only skips those
        uniforms' raw words.  A two-point member's counts, numpy's from the
        same raw words (``perturb.two_point_counts``), fill its two columns;
        where numpy takes another path, as for three or more points,
        ``rng.multinomial`` draws them.  The rows, in the view's scratch, are
        gathered from ``_row_template``; only drawn batches are written.
        """
        probs, valid = self._members[view]
        point_mass = self._point_mass[view]
        two_point = self._two_point[view]
        template = self._row_template(view, m)
        rows = self.buffer("rows", (template.shape[0], len(slot_atoms), self.n_points + 1),
                           template.dtype)
        # the atoms are valid indices; "clip" writes straight into out, "raise" buffers it
        np.take(template, slot_atoms, axis=1, out=rows, mode="clip")
        for a in range(self.n_atoms):
            idx = np.flatnonzero(slot_atoms == a)
            if len(idx) == 0:
                continue
            positive = self.atom_y[a] == 1
            for j in np.flatnonzero(valid[a]):
                point = point_mass[a, j]
                at = two_point_counts(m, probs[a, j], len(idx), rng) if two_point[a, j] else None
                if at is not None:
                    pa, pb = np.flatnonzero(probs[a, j])
                    rows[j, idx, pb] = at - m if positive else m - at
                    rows[j, idx, pa] = -at if positive else at
                elif point < 0:
                    counts = rng.multinomial(m, probs[a, j], size=len(idx))
                    put_member_rows(rows, j, idx, counts, positive, m)
                    del counts  # freed before the next multinomial allocates its own
                elif point < self.n_points - 1:
                    skip_words(rng.bit_generator, len(idx))
        return rows

    def dr_s(self, labels: np.ndarray, slot_atoms: np.ndarray, rows: np.ndarray,
             trials: int, n: int, m: int, ties: bool = True, dr: bool = False):
        """``loss.dr_scores`` of the rows ``draw_slot_counts`` drew for ``slot_atoms``.

        The rows carry the slots' labels, so ``slot_atoms`` is not read.  The
        results are the view's scratch.  Callers pass every argument by
        position, as ``perfbench/probe.py``'s wrapper forwards them.
        """
        return dr_scores(labels, rows, trials, n, m, ties, dr, self.buffer)

    def seen_points(self, slot_atoms: np.ndarray, rows: np.ndarray, trials: int,
                    n: int) -> np.ndarray:
        """(trials, D) mask of the points in each trial's sample: its draws and clean instances."""
        seen = np.any(rows[:, :, :-1], axis=0).reshape(trials, n, self.n_points).any(axis=1)
        seen[np.arange(trials).repeat(n), self.atom_point_idx[slot_atoms]] = True
        return seen

    def labels_of(self, h) -> np.ndarray:
        """(1, D) labels of one hypothesis on the domain points."""
        return np.array([[h.predict(z) for z in self.points]], dtype=np.int8)

    def erm_on_sample(self, hclass, labels: np.ndarray, witnesses: list,
                      ties: np.ndarray, seen: np.ndarray):
        """Exact ERM restricted to the points one trial's sample contains.

        ``ties`` is the trial's column of ``dr_s``'s ERM minimizers among the
        full-domain behaviors ``labels``/``witnesses``, and ``seen`` its row of
        ``seen_points``: the perturbation points plus the clean instances
        (clean points carry no loss).  Returns the witness that enumerating
        behaviors on those points, scoring each and taking the first minimum
        in canonical order gives.
        """
        rows = np.flatnonzero(ties)
        return hclass.sample_witness(self.points, np.flatnonzero(seen), labels[rows],
                                     witnesses[rows[0]])
