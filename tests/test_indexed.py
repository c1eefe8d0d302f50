"""The finite engine's fast paths against the slow computations they replaced.

``oracle_counts`` is the batch draw as a (slots, k, D) count tensor, one
``rng.multinomial`` per (atom, member) even for point masses, and
``oracle_rows`` turns it into the contraction's member rows the way the
engine once did.  ``reference_dr_s`` is the dense contraction over a
(B, slots, D) mistake tensor on those counts, and ``reference_erm`` the
per-trial ERM: enumerate the behaviors on the sampled points, score each,
take the first minimum.  ``outer_oracle`` is the hoeffding suite's outer
chunk with every member's batch drawn by numpy's binomial.  The fast paths
must agree with them bit for bit, because report bytes depend on them all.
"""

import copy
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import drloss
import drloss.loss as loss
from drloss import seeding
from drloss.hypo import (
    AxisRectClass,
    FiniteClass,
    IntervalClass,
    ThresholdClass,
)
from drloss.tasks import (
    build_task,
    random_finite_task,
    random_table_hypothesis,
    task_from_dict,
    with_label_noise,
)
from drloss.xprun import load_config, suites
from drloss.xprun.indexed import FiniteView


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def oracle_counts(view, rng, slot_atoms, m, member_view):
    """(slots, k, D) int64 batch counts: one multinomial per (atom, member) with slots."""
    probs, valid = view._members[member_view]
    counts = np.zeros((len(slot_atoms), probs.shape[1], view.n_points), dtype=np.int64)
    for a in range(view.n_atoms):
        idx = np.flatnonzero(slot_atoms == a)
        if len(idx) == 0:
            continue
        for j in range(probs.shape[1]):
            if valid[a, j]:
                counts[idx, j, :] = rng.multinomial(m, probs[a, j], size=len(idx))
    return counts


def oracle_rows(counts, positive):
    """(k, slots, D + 1) rows of ``counts``: negated on positive slots, then the batch size there."""
    kmax, n_d = counts.shape[1], counts.shape[2]
    rows = np.empty((kmax, len(counts), n_d + 1))
    np.multiply(counts.transpose(1, 0, 2), (1.0 - 2.0 * positive)[:, None], out=rows[:, :, :n_d])
    flat = rows.reshape(-1, n_d + 1)
    # a negated row sums to minus its batch size
    np.matmul(flat[:, :n_d], -np.ones(n_d), out=flat[:, n_d])
    rows[:, :, n_d] *= positive
    return rows


def draw_with_oracle(view, r, slot_atoms, m, member_view="true"):
    """The engine's rows and the oracle's counts, drawn from the same state of ``r``.

    Asserts the rows equal the oracle's and the two draws leave the bit
    generator in the same state.  Rows are compared as values: the oracle's
    zero entries may be -0.0, which the contraction sums like 0.0.
    """
    ref = copy.deepcopy(r)
    rows = view.draw_slot_counts(r, slot_atoms, m, member_view)
    counts = oracle_counts(view, ref, slot_atoms, m, member_view)
    want = oracle_rows(counts, view.atom_y[slot_atoms] == 1)
    assert rows.dtype == loss.member_rows(0, 0, 0, m).dtype and rows.shape == want.shape
    assert np.array_equal(rows, want)
    assert repr(r.bit_generator.state) == repr(ref.bit_generator.state)
    return rows, counts


def reference_dr_s(view, labels, slot_atoms, counts, trials, n, m):
    """(dr_s, scores) from the dense tensor.

    Both average the same per-slot worst losses: dr_s adds them left to
    right, the scores pairwise, as numpy sums a contiguous axis.
    """
    mist = view.mistakes(labels)[:, slot_atoms, :]
    per_member = np.einsum("bnd,nkd->bnk", mist, counts.astype(float)) / m
    worst = np.ascontiguousarray(per_member.max(axis=2)).reshape(len(labels), trials, n)
    left_to_right = worst[:, :, 0].copy()
    for i in range(1, n):
        left_to_right += worst[:, :, i]
    return left_to_right / n, worst.mean(axis=2)


def reference_erm(view, hclass, slot_atoms, counts, m):
    seen = counts.sum(axis=(0, 1)) > 0
    seen[view.atom_point_idx[slot_atoms]] = True
    sub_idx = np.flatnonzero(seen)
    behaviors = hclass.enumerate_behaviors([view.points[d] for d in sub_idx])
    labels_sub = np.array([b.labels for b in behaviors], dtype=np.int8)
    y_slots = view.atom_y[slot_atoms]
    mist = (labels_sub[:, None, :] != y_slots[None, :, None]).astype(float)
    per_member = np.einsum("bnd,nkd->bnk", mist, counts[:, :, sub_idx].astype(float)) / m
    scores = per_member.max(axis=2).mean(axis=1)
    best = int(np.argmin(scores))
    return behaviors[best].witness, float(scores[best])


def grid_task(rng, size: int, realizable: bool):
    """Two atoms on the size x size grid, two random members each.

    Realizable: the positive atom's members sit inside a random box and the
    negative atom's outside it, so many boxes tie at zero training loss.
    """
    points = [(float(i), float(j)) for i in range(size) for j in range(size)]
    lo = rng.integers(0, size, 2)
    hi = lo + rng.integers(0, size - lo)
    inside = [all(lo[a] <= p[a] <= hi[a] for a in range(2)) for p in points]
    if realizable:
        pos_pts = [p for p, i in zip(points, inside) if i]
        neg_pts = [p for p, i in zip(points, inside) if not i] or [(-1.0, -1.0)]
    else:
        pos_pts = neg_pts = points

    def member(support):
        c = rng.multinomial(10, [1 / len(support)] * len(support))
        return [[list(support[d]), c[d] / 10] for d in range(len(support)) if c[d]]

    neg, pos = neg_pts[0], pos_pts[-1]
    return task_from_dict({
        "atoms": [[list(neg), -1, 0.5], [list(pos), 1, 0.5]],
        "distributions": {"n0": member(neg_pts), "n1": member(neg_pts),
                          "p0": member(pos_pts), "p1": member(pos_pts)},
        "families": [{"x": list(neg), "true": ["n0", "n1"], "k": 2},
                     {"x": list(pos), "true": ["p0", "p1"], "k": 2}],
    })


def case_task(case, seed):
    r = rng_for(seed)
    if case == "axis-rect-2":
        return r, grid_task(r, int(r.integers(2, 5)), realizable=seed % 2 == 0), AxisRectClass(2)
    task = random_finite_task(r, max_points=8)
    if case == "threshold":
        return r, task, ThresholdClass()
    if case == "interval":
        return r, task, IntervalClass()
    points = task.domain_points(views=("true",))
    return r, task, FiniteClass([random_table_hypothesis(r, points)
                                 for _ in range(int(r.integers(1, 10)))])


CASES = ["threshold", "interval", "finite-table", "axis-rect-2"]


@pytest.mark.parametrize("n", [1, 3, 8, 20])
@pytest.mark.parametrize("case", CASES)
def test_erm_on_sample_matches_enumeration(case, n):
    ties = 0
    for seed in range(40):
        r, task, hclass = case_task(case, seed)
        view = FiniteView(task)
        labels, witnesses = view.behaviors(hclass)
        trials, m = 3, int(r.integers(1, 6))
        slots = view.draw_clean_slots(r, trials * n)
        rows, counts = draw_with_oracle(view, r, slots, m)
        _, scores = view.dr_s(labels, slots, rows, trials, n, m, True)
        seen = view.seen_points(slots, rows, trials, n)
        for t in range(trials):
            trial = slice(t * n, (t + 1) * n)
            want, want_loss = reference_erm(view, hclass, slots[trial], counts[trial], m)
            got, got_loss = view.erm_on_sample(hclass, labels, witnesses, scores[:, t], seen[t])
            assert got == want
            assert got.to_json() == want.to_json()
            assert got_loss == want_loss
            assert np.array_equal(view.labels_of(got), view.labels_of(want))
            ties += np.count_nonzero(scores[:, t] == want_loss) > 1
    assert ties > 0  # the canonical tie-break among minimizers was exercised


def erm_chunk_oracle(cfg, s, g, chunk, lo, hi):
    """The ERM chunk's ERM columns with one ``erm_on_sample`` per trial."""
    n, m = cfg.grid[g]["n"], cfg.grid[g]["m"]
    trials, view, level = hi - lo, s.view, s.levels[g]
    rng = seeding.stream(cfg.master_seed, g, chunk)
    slots = view.draw_clean_slots(rng, trials * n)
    rows = view.draw_slot_counts(rng, slots, m, s.train_view)
    dr_s, scores = view.dr_s(s.labels, slots, rows, trials, n, m, True)
    seen = view.seen_points(slots, rows, trials, n)
    hypotheses, loss_emp = zip(*(view.erm_on_sample(s.hclass, s.labels, s.witnesses,
                                                    scores[:, t], seen[t])
                                 for t in range(trials)))
    loss_emp = np.array(loss_emp)
    loss_pop = np.array([view.dr_exact(view.labels_of(h), "true")[0] for h in hypotheses])
    keys = {(tuple(np.flatnonzero(scores[:, t] == loss_emp[t])), tuple(seen[t]))
            for t in range(trials)}
    return {"hypothesis": [h.to_json() for h in hypotheses], "loss_emp": loss_emp,
            "loss_pop": loss_pop, "max_gap": np.abs(dr_s - s.dr_true[:, None]).max(axis=0),
            "viol_erm": (loss_emp <= suites.EXACT_ZERO_TOL) & (loss_pop >= level),
            "viol_any": np.any((dr_s <= suites.EXACT_ZERO_TOL) & (s.dr_true >= level)[:, None],
                               axis=0)}, len(keys)


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("noise", [False, True], ids=["clean", "label-noise"])
@pytest.mark.parametrize("case", CASES)
def test_erm_chunk_matches_per_trial_erm(monkeypatch, case, noise, n):
    # the chunk runs ERM once per distinct (tie set, seen set); label noise
    # puts both labels on one point, which forces ties at the minimum
    calls = []
    erm_on_sample = FiniteView.erm_on_sample
    monkeypatch.setattr(FiniteView, "erm_on_sample",
                        lambda *a: calls.append(a) or erm_on_sample(*a))
    shared = 0
    for seed in range(12):
        r, task, hclass = case_task(case, 1200 + seed)
        if noise:
            task = with_label_noise(task, 0.25)
        view = FiniteView(task)
        labels, witnesses = view.behaviors(hclass)
        dr_true = view.dr_exact(labels, "true")
        epsilon = float(r.choice([0.0, 0.1, 0.3]))
        s = SimpleNamespace(hclass=hclass, view=view, labels=labels, witnesses=witnesses,
                            dr_true=dr_true, train_view="true", levels=[epsilon],
                            eps_prime=float("nan"), k=task.max_family_size("true"))
        for kind, viol in (("realizable", ("viol_erm", "viol_any")), ("agnostic", ("max_gap",))):
            cfg = load_config(kind, seed=seed)
            cfg.grid = [{"n": n, "m": int(r.integers(1, 6)), "epsilon": epsilon, "delta": 0.05,
                         "exact_inner": False}]
            trials = int(r.integers(1, 60))
            want, keys = erm_chunk_oracle(cfg, s, 0, 0, 0, trials)
            calls.clear()
            got = suites._erm_chunk(cfg, s, 0, 0, 0, trials)
            assert len(calls) == keys
            assert [json.dumps(h) for h in got["hypothesis"]] == [json.dumps(h) for h in
                                                                  want["hypothesis"]]
            for col in ("loss_emp", "loss_pop") + viol:
                assert got[col].tobytes() == want[col].tobytes(), col
            shared += keys < trials
    assert shared > 0  # some trials did reuse another's ERM


@pytest.mark.parametrize("case", CASES)
def test_sample_witness_matches_first_projection(case):
    """The class rule against enumeration on random subsets of the domain.

    The rows are every full-domain behavior whose projection lies in a
    random set of projections, as ERM minimizers are: rows with one
    projection share their score.
    """
    for seed in range(60):
        r = rng_for(900 + seed)
        if case == "axis-rect-2":
            size = int(r.integers(2, 6))
            points = [(float(i), float(j)) for i in range(size) for j in range(size)]
            hclass = AxisRectClass(2)
        else:
            points = [float(i) for i in range(int(r.integers(1, 9)))]
            hclass = {"threshold": ThresholdClass(), "interval": IntervalClass(),
                      "finite-table": FiniteClass([random_table_hypothesis(r, points)
                                                   for _ in range(int(r.integers(1, 10)))])}[case]
        full = hclass.enumerate_behaviors(points)
        labels = np.array([b.labels for b in full], dtype=np.int8)
        seen = np.flatnonzero(r.random(len(points)) < 0.6)
        if seen.size == 0:
            seen = np.array([int(r.integers(len(points)))])
        sub = hclass.enumerate_behaviors([points[d] for d in seen])
        chosen = {sub[i].labels for i in np.flatnonzero(r.random(len(sub)) < 0.3)} or {sub[-1].labels}
        rows = [i for i, row in enumerate(labels[:, seen]) if tuple(row) in chosen]
        want = next(b.witness for b in sub if b.labels in chosen)
        got = hclass.sample_witness(points, seen, labels[rows], full[rows[0]].witness)
        assert got == want and got.to_json() == want.to_json()


# The positive atom's one member leaves two padding rows below the negative
# atom's three: a y = +1 padding row must count no mistakes.
PADDED_TASK = {
    "atoms": [[0.0, -1, 0.6], [3.0, 1, 0.4]],
    "distributions": {"a": [[0.0, 0.5], [1.0, 0.5]], "b": [[0.0, 1.0]],
                      "c": [[1.0, 0.5], [2.0, 0.5]], "d": [[1.0, 0.25], [2.0, 0.25], [3.0, 0.5]]},
    "families": [{"x": 0.0, "true": ["a", "b", "c"], "k": 3},
                 {"x": 3.0, "true": ["d"], "k": 1}],
}


@pytest.mark.parametrize("block_bytes", [1, 5000, loss.DR_S_BLOCK_BYTES],
                         ids=["one-trial-blocks", "small-blocks", "default"])
def test_dr_s_matches_dense_contraction(monkeypatch, block_bytes):
    # n = 2 and 50 sit on either side of numpy's 8-element pairwise-sum switch
    monkeypatch.setattr(loss, "DR_S_BLOCK_BYTES", block_bytes)
    runs = []
    for seed in range(30):
        case = CASES[seed % len(CASES)]
        r, task, hclass = case_task(case, 500 + seed)
        runs.append((r, FiniteView(task), hclass, "true", (1, 2, 3, 8, 20, 50)[seed % 6]))
    for n in (2, 50):
        model = FiniteView(build_task({"builtin": "model2"}), views=("true", "rep"))
        runs.append((rng_for(n), model, ThresholdClass(), "rep", n))
        runs.append((rng_for(n), FiniteView(task_from_dict(PADDED_TASK)), IntervalClass(),
                     "true", n))
    for r, view, hclass, member_view, n in runs:
        labels, _ = view.behaviors(hclass)
        trials, m = int(r.integers(1, 7)), int(r.integers(1, 51))
        slots = view.draw_clean_slots(r, trials * n)
        rows, counts = draw_with_oracle(view, r, slots, m, member_view)
        want, want_scores = reference_dr_s(view, labels, slots, counts, trials, n, m)
        assert np.array_equal(view.dr_s(labels, slots, rows, trials, n, m), want)
        dr_s, scores = view.dr_s(labels, slots, rows, trials, n, m, True)
        assert np.array_equal(dr_s, want)
        assert np.array_equal(scores, want_scores)
    # the last run was the padded task's, with y = +1 slots to pad
    assert counts.shape[1] == 3 and np.any(view.atom_y[slots] == 1)


@pytest.mark.parametrize("block_bytes", [1, 5000, loss.DR_S_BLOCK_BYTES],
                         ids=["one-trial-blocks", "small-blocks", "default"])
def test_dr_scores_float32_rows_match_float64(monkeypatch, block_bytes):
    # rows built by hand over D = 17 points, so m = 2**24 needs no multinomial;
    # float32 must score exactly as float64 up to m = 2**24, then rows are float64
    monkeypatch.setattr(loss, "DR_S_BLOCK_BYTES", block_bytes)
    r = rng_for(24)
    n_d, trials, n, kmax = 17, 6, 4, 3
    labels = r.choice(np.array([-1, 1], dtype=np.int8), size=(40, n_d))
    for m in (1, 3, 200, 1 << 24, (1 << 24) + 1):
        rows = loss.member_rows(kmax, trials * n, n_d, m)
        assert rows.dtype == (np.float32 if m <= 1 << 24 else np.float64)
        for i in range(trials * n):
            cuts = np.sort(r.integers(0, m + 1, size=n_d - 1))
            counts = np.diff(cuts, prepend=0, append=m)
            if i % 5 == 0:  # the whole batch on one point
                counts = np.where(np.arange(n_d) == i % n_d, m, 0)
            # the first member always, the others not always: padding rows
            for j in range(1 + int(r.integers(kmax))):
                loss.put_member_rows(rows, j, i, r.permutation(counts), bool(r.integers(2)), m)
        wide = rows.astype(np.float64)
        assert np.array_equal(rows, wide)
        got = (loss.dr_scores(labels, rows, trials, n, m),
               *loss.dr_scores(labels, rows, trials, n, m, True))
        dr, scores = loss.dr_scores(labels, wide, trials, n, m, True)
        for a, b in zip(got, (dr, dr, scores)):
            assert a.dtype == np.float64 and a.tobytes() == b.tobytes()


# Every kind of member row: point masses at the first (0.0), a middle (2.0)
# and the last (4.0) domain point, one written with an explicit zero, on
# y = -1 and y = +1 atoms; fractional members; and padding rows below the
# one- and two-member families.
MEMBER_ROWS_TASK = {
    "atoms": [[0.0, -1, 0.3], [4.0, 1, 0.3], [2.0, 1, 0.2], [1.0, -1, 0.2]],
    "distributions": {"at0": [[0.0, 1.0]], "at2": [[1.0, 0.0], [2.0, 1.0]],
                      "at4": [[4.0, 1.0]], "spread": [[1.0, 0.2], [2.0, 0.5], [3.0, 0.3]],
                      "high": [[3.0, 0.3], [4.0, 0.7]]},
    "families": [{"x": 0.0, "true": ["at0", "spread", "at2"], "k": 3},
                 {"x": 4.0, "true": ["at4", "high"], "k": 2},
                 {"x": 2.0, "true": ["at0"], "k": 1},
                 {"x": 1.0, "true": ["at4"], "k": 1}],
}

MEMBER_ROWS_CASES = {
    # k = 1: a fractional member on y = -1, a last-point mass on y = +1
    "near-threshold": (lambda: build_task({"builtin": "near-threshold"}), "true", 1),
    # k = 2: first- and last-point masses beside uniform members
    "t1": (lambda: build_task({"builtin": "t1"}), "true", 2),
    "mixed": (lambda: task_from_dict(MEMBER_ROWS_TASK), "true", 3),
    "model2-rep": (lambda: build_task({"builtin": "model2"}), "rep", 2),
    "padded": (lambda: task_from_dict(PADDED_TASK), "true", 3),
}


class CountingMultinomial(np.random.Generator):
    """A Philox generator that counts its own ``multinomial`` calls."""

    def __init__(self, seed):
        super().__init__(np.random.Philox(seed))
        self.multinomial_calls = 0

    def multinomial(self, *args, **kwargs):
        self.multinomial_calls += 1
        return super().multinomial(*args, **kwargs)


@pytest.mark.parametrize("m", [1, 3, 50, 200])  # m = 200 takes numpy's BTPE binomials
@pytest.mark.parametrize("case", list(MEMBER_ROWS_CASES))
def test_multinomial_rows_match_oracle(case, m):
    build, member_view, k = MEMBER_ROWS_CASES[case]
    view = FiniteView(build(), views=(member_view,))
    assert view.max_k[member_view] == k
    probs, valid = view._members[member_view]
    point_mass = (np.count_nonzero(probs, axis=2) == 1) & (probs.max(axis=2) == 1.0)
    for seed in range(6):
        r = CountingMultinomial(seed)
        # one slot leaves most atoms without slots; the rest cover them all
        slots = view.draw_clean_slots(r, (1, 2, 7, 40, 300, 2000)[seed])
        if seed:
            r.random(seed)  # start the draw at each of Philox's buffer positions
        ref = copy.deepcopy(r)
        rows = view.draw_slot_counts(r, slots, m, member_view)
        counts = oracle_counts(view, ref, slots, m, member_view)
        want = oracle_rows(counts, view.atom_y[slots] == 1)
        assert rows.dtype == loss.member_rows(0, 0, 0, m).dtype and rows.shape == want.shape
        assert np.array_equal(rows, want)
        assert r.random() == ref.random()
        drawn = valid & ~point_mass & np.isin(np.arange(view.n_atoms), slots)[:, None]
        assert r.multinomial_calls == np.count_nonzero(drawn)


def test_multinomial_rows_skip_point_masses_at_every_point():
    # a point mass at the last point takes no uniform, at any other point one
    # per batch; a y = +1 atom's rows are negated.  The mass sits at the
    # first, a middle (d = 1 and 2) and the last of the domain points
    for d in range(4):
        task = task_from_dict({
            "atoms": [[0.0, -1, 0.5], [1.0, 1, 0.5]],
            "distributions": {"mass": [[float(d), 1.0]], "rest": [[0.0, 0.25], [3.0, 0.75]]},
            "families": [{"x": 0.0, "true": ["mass", "rest"], "k": 2},
                         {"x": 1.0, "true": ["rest", "mass"], "k": 2}],
        })
        view = FiniteView(task)
        at = view.point_index[float(d)]
        assert at == {0: 0, 1: 1, 2: 2, 3: view.n_points - 1}[d]
        for m in (1, 3, 50, 200):
            r = rng_for(10 * d + m)
            slots = view.draw_clean_slots(r, 64)
            rows, _ = draw_with_oracle(view, r, slots, m)
            mass = rows[np.where(slots == 0, 0, 1), np.arange(len(slots)), at]
            assert np.array_equal(mass, np.where(slots == 0, m, -m))


def test_put_member_rows_negates_positive_counts_in_place():
    # a y = +1 batch is written negated without a copy of its counts
    counts = rng_for(3).multinomial(50, np.full(1024, 1 / 1024), size=1000)  # 8 MB of int64
    want = oracle_rows(counts[:, None, :], np.ones(1000, dtype=bool))
    rows = np.zeros((2, 1000, 1025))
    tracemalloc.start()
    try:
        loss.put_member_rows(rows, 0, np.arange(1000), counts, True, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < counts.nbytes, peak
    assert np.array_equal(rows[:1], want) and not rows[1].any()


def test_seen_points_match_counts():
    for seed in range(20):
        case = CASES[seed % len(CASES)]
        r, task, _ = case_task(case, 700 + seed)
        view = FiniteView(task)
        trials, n, m = int(r.integers(1, 5)), int(r.integers(1, 9)), int(r.integers(1, 6))
        slots = view.draw_clean_slots(r, trials * n)
        rows, counts = draw_with_oracle(view, r, slots, m)
        seen = view.seen_points(slots, rows, trials, n)
        for t in range(trials):
            trial = slice(t * n, (t + 1) * n)
            want = counts[trial].any(axis=(0, 1))
            want[view.atom_point_idx[slots[trial]]] = True
            assert np.array_equal(seen[t], want)


def outer_oracle(cfg, s, g, chunk, lo, hi):
    """The outer chunk's deviations, with every member's batch drawn as numpy's binomial."""
    rng = seeding.stream(cfg.master_seed, g, chunk)
    n, m = cfg.grid[g]["n"], cfg.params["outer_m"]
    slots = rng.choice(len(s.view.atom_p), size=(hi - lo, n), p=s.view.atom_p)
    worst = np.zeros((hi - lo, n))
    for j in range(s.p_members.shape[1]):
        worst = np.maximum(worst, rng.binomial(m, s.p_members[:, j][slots]) / m)
    devs = np.abs(worst.mean(axis=1) - s.expected)
    return devs, devs >= s.tails[g][0]


def outer_task(r, tables: str) -> dict:
    """Inline outer task for the threshold at 0.5; a member's error is 0/1 or fractional.

    ``tables`` is "zero-one", "fractional" or "mixed".  Atoms have one to
    three members, so atoms with fewer than the most are padded.
    """
    n_atoms = int(r.integers(1, 4))
    k = int(r.integers(1, 4))
    atom_p = r.dirichlet(np.ones(n_atoms))
    atoms, dists, families = [], {}, []
    for a, x in enumerate(r.choice(8, size=n_atoms, replace=False) / 4):
        names = []
        for j in range(k if a == 0 else int(r.integers(1, k + 1))):
            name = f"u{a}_{j}"
            if tables == "fractional" or (tables == "mixed" and r.random() < 0.5):
                w = float(r.uniform(0.05, 0.95))
                dists[name] = [[0.25, w], [0.75, 1.0 - w]]
            else:
                dists[name] = [[float(r.choice([0.25, 0.75])), 1.0]]
            names.append(name)
        atoms.append([float(x), int(r.choice([-1, 1])), float(atom_p[a])])
        families.append({"x": float(x), "true": names, "k": len(names)})
    return {"atoms": atoms, "distributions": dists, "families": families}


@pytest.mark.parametrize("tables", ["zero-one", "fractional", "mixed"])
def test_hoeffding_outer_chunk_matches_binomial_oracle(tables):
    # a 0/1 table reads each slot's worst loss off its atom and draws no
    # member batch; any other table draws every member through numpy
    for seed in range(8):
        r = rng_for(900 + seed)
        cfg = load_config("hoeffding", seed=seed)
        cfg.params = dict(cfg.params, outer_task={"inline": outer_task(r, tables)},
                          outer_m=int(r.choice([1, 2, 5, 40])))
        cfg.grid = [{"target": "outer", "n": int(r.choice([1, 7, 30])), "epsilon": 0.3}]
        s = suites._hoeffding_setup(cfg)
        zero_one = np.all((s.p_members == 0) | (s.p_members == 1))
        assert zero_one == (tables == "zero-one") or tables == "mixed"
        assert (s.worst_atom is not None) == zero_one
        trials = suites.CHUNK + 44
        for chunk, lo, hi in suites._chunk_ranges(trials, suites.CHUNK):
            got = suites._hoeffding_chunk(cfg, s, 0, chunk, lo, hi)
            devs, exceeded = outer_oracle(cfg, s, 0, chunk, lo, hi)
            assert got["deviation"].tobytes() == devs.tobytes()
            assert np.array_equal(got["exceeded"], exceeded)


# Runs the CLI in a child whose address space is capped; the cap covers that
# child and the pool workers it forks, not the test process.
CAPPED_CLI = textwrap.dedent("""
    import resource, sys
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    from drloss.cli import main
    sys.exit(main(sys.argv[1:]))
""")


def line_task(size: int) -> dict:
    """Realizable two-atom task over the points 0..size-1, split at the middle."""
    points = [float(i) for i in range(size)]
    low, high = points[: size // 2], points[size // 2:]
    return {"inline": {
        "atoms": [[points[0], -1, 0.5], [points[-1], 1, 0.5]],
        "distributions": {
            "neg_point": [[points[0], 1.0]],
            "neg_half": [[p, 1.0 / len(low)] for p in low],
            "pos_point": [[points[-1], 1.0]],
            "pos_half": [[p, 1.0 / len(high)] for p in high],
        },
        "families": [{"x": points[0], "true": ["neg_point", "neg_half"], "k": 2},
                     {"x": points[-1], "true": ["pos_point", "pos_half"], "k": 2}],
    }}


def test_interval_d64_fits_in_two_gib(tmp_path):
    # B = 2081 behaviors over 12,800 slots: a dense (B, slots, D) tensor needs 12.7 GiB
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "kind": "realizable", "task": line_task(64), "hypothesis_class": {"tag": "interval-1d"},
        "grid": [{"n": 50, "m": 50, "epsilon": 0.1, "delta": 0.05, "assert": True}],
        "trials": 256,
    }))
    src = str(Path(drloss.__file__).resolve().parents[1])
    reports = []
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}.json"
        proc = subprocess.run(
            [sys.executable, "-c", CAPPED_CLI, "realizable", "--config", str(cfg), "--seed", "1",
             "--out", str(out), "--format", "json", "--jobs", str(jobs), "--quiet"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        report["config"]["jobs"] = 1  # the echo differs by design; rows must not
        reports.append(report)
    assert reports[0] == reports[1]
    assert len(reports[0]["rows"]) == 256
