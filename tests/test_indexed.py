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
from drloss.cli import main as cli_main
from drloss.hypo import (
    AxisRectClass,
    FiniteClass,
    IntervalClass,
    ThresholdClass,
)
from drloss.tasks import build_task, task_from_dict, with_label_noise
from drloss.xprun import load_config, suites
from drloss.xprun.config import build_hypothesis_class, check
from drloss.xprun.indexed import FiniteView

from generators import load_workloads, random_finite_task, random_table_hypothesis, rng_for


# the float oracles' zero test: a float loss this small is a zero loss, as
# the engine once decided; its exact W == 0 must agree with it
FLOAT_ZERO_TOL = 1e-12


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
    """(dr_s, scores, hits) from the dense tensor.

    dr_s and the scores average the same per-slot worst losses: dr_s adds
    them left to right, the scores pairwise, as numpy sums a contiguous
    axis.  hits sums the worst members' integer mistake counts.
    """
    mist = view.mistakes(labels)[:, slot_atoms, :]
    per_member = np.einsum("bnd,nkd->bnk", mist, counts.astype(float)) / m
    worst = np.ascontiguousarray(per_member.max(axis=2)).reshape(len(labels), trials, n)
    left_to_right = worst[:, :, 0].copy()
    for i in range(1, n):
        left_to_right += worst[:, :, i]
    hits = np.einsum("bnd,nkd->bnk", mist.astype(np.int64), counts).max(axis=2)
    return left_to_right / n, worst.mean(axis=2), hits.reshape(len(labels), trials, n).sum(axis=2)


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
        scores = view.dr_s(labels, slots, rows, trials, n, m)
        seen = view.seen_points(slots, rows, trials, n)
        for t in range(trials):
            trial = slice(t * n, (t + 1) * n)
            want, want_loss = reference_erm(view, hclass, slots[trial], counts[trial], m)
            got = view.erm_on_sample(hclass, labels, witnesses, scores.ties[:, t], seen[t])
            assert got == want
            assert got.to_json() == want.to_json()
            assert scores.loss_emp[t] == want_loss
            assert np.array_equal(view.labels_of(got), view.labels_of(want))
            ties += np.count_nonzero(scores.ties[:, t]) > 1
    assert ties > 0  # the canonical tie-break among minimizers was exercised


def finite_setup(task, hclass, level):
    """The setup ``_erm_chunk`` reads, without the realizable check, at one loss level."""
    view = FiniteView(task)
    labels, witnesses = view.behaviors(hclass)
    return SimpleNamespace(hclass=hclass, view=view, labels=labels, witnesses=witnesses,
                           dr_true=view.dr_exact(labels, "true"), train_view="true",
                           train_worst=view.worst_member(labels, "true"),
                           levels=[level], eps_prime=float("nan"),
                           k=task.max_family_size("true"))


def erm_config(kind, n, m, epsilon, exact_inner, seed=0):
    cfg = load_config(kind, seed=seed)
    cfg.grid = [{"n": n, "m": m, "epsilon": epsilon, "delta": 0.05, "exact_inner": exact_inner}]
    return cfg


def erm_chunk_oracle(cfg, s, g, chunk, lo, hi):
    """The ERM chunk's ERM columns with one ``erm_on_sample`` per trial."""
    n, m = cfg.grid[g]["n"], cfg.grid[g]["m"]
    trials, view, level = hi - lo, s.view, s.levels[g]
    rng = seeding.stream(cfg.master_seed, g, chunk)
    slots = view.draw_clean_slots(rng, trials * n)
    rows = view.draw_slot_counts(rng, slots, m, s.train_view)
    scores = view.dr_s(s.labels, slots, rows, trials, n, m, dr=True)
    dr_s, loss_emp = scores.dr, scores.loss_emp
    seen = view.seen_points(slots, rows, trials, n)
    hypotheses = [view.erm_on_sample(s.hclass, s.labels, s.witnesses, scores.ties[:, t], seen[t])
                  for t in range(trials)]
    loss_pop = np.array([view.dr_exact(view.labels_of(h), "true")[0] for h in hypotheses])
    keys = {(tuple(np.flatnonzero(scores.ties[:, t])), tuple(seen[t])) for t in range(trials)}
    # viol_any from the float losses' zero test, which the chunk's W == 0 must match
    return {"hypothesis": [h.to_json() for h in hypotheses], "loss_emp": loss_emp.copy(),
            "loss_pop": loss_pop, "max_gap": np.abs(dr_s - s.dr_true[:, None]).max(axis=0),
            "viol_erm": (loss_emp <= FLOAT_ZERO_TOL) & (loss_pop >= level),
            "viol_any": np.any((dr_s <= FLOAT_ZERO_TOL) & (s.dr_true >= level)[:, None],
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
        epsilon = float(r.choice([0.0, 0.1, 0.3]))
        s = finite_setup(task, hclass, epsilon)
        for kind, viol in (("realizable", ("viol_erm", "viol_any")), ("agnostic", ("max_gap",))):
            cfg = erm_config(kind, n, int(r.integers(1, 6)), epsilon, False, seed)
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


def exact_inner_oracle(cfg, s, trials):
    """The exact-inner ERM columns from the gathered means, zero read per drawn atom."""
    n, level = cfg.grid[0]["n"], s.levels[0]
    slots = s.view.draw_clean_slots(seeding.stream(cfg.master_seed, 0, 0), trials * n)
    worst = s.view.worst_member(s.labels, s.train_view)
    dr_s = worst[:, slots].reshape(len(s.labels), trials, n).mean(axis=2)
    zero = np.array([[all(worst[b, a] == 0 for a in set(slots[t * n:(t + 1) * n].tolist()))
                      for t in range(trials)] for b in range(len(s.labels))])
    best = dr_s.argmin(axis=0)
    loss_pop = s.dr_true[best]
    return {"hypothesis": [s.witnesses[b].to_json() for b in best],
            "loss_emp": dr_s[best, np.arange(trials)], "loss_pop": loss_pop,
            "max_gap": np.abs(dr_s - s.dr_true[:, None]).max(axis=0),
            "viol_erm": zero[best, np.arange(trials)] & (loss_pop >= level),
            "viol_any": np.any(zero & (s.dr_true >= level)[:, None], axis=0)}


@pytest.mark.parametrize("n", [1, 4, 50])
@pytest.mark.parametrize("case", CASES)
def test_exact_inner_chunk_matches_gathered_means(monkeypatch, case, n):
    # the chunk's block-by-block gathers, one block for every trial or one
    # or three trials a block, against worst[:, slots].reshape(B, trials,
    # n).mean(axis=2); n = 50 is past numpy's 8-element pairwise-sum switch
    monkeypatch.setattr(loss, "DR_S_MIN_SLOTS", 1)  # blocks as small as the budget asks
    zeros = 0
    for seed in range(12):
        r, task, hclass = case_task(case, 1700 + seed)
        s = finite_setup(task, hclass, float(r.choice([0.0, 0.1, 0.3])))
        trials = int(r.integers(1, 40))
        trial_bytes = len(s.labels) * n * s.train_worst.itemsize
        for kind, viol in (("realizable", ("viol_erm", "viol_any")), ("agnostic", ("max_gap",))):
            cfg = erm_config(kind, n, 1, s.levels[0], True, seed)
            want = exact_inner_oracle(cfg, s, trials)
            for budget in (loss.DR_S_BLOCK_BYTES, trial_bytes, 3 * trial_bytes):
                monkeypatch.setattr(loss, "DR_S_BLOCK_BYTES", budget)
                got = suites._erm_chunk(cfg, s, 0, 0, 0, trials)
                assert got["hypothesis"] == want["hypothesis"]
                for col in ("loss_emp", "loss_pop") + viol:
                    assert got[col].dtype == want[col].dtype, col
                    assert got[col].tobytes() == want[col].tobytes(), (col, budget)
            zeros += int(np.count_nonzero(want["viol_any"]))
    assert zeros > 0  # some trial had a zero-loss behavior at the level


@pytest.mark.parametrize("kind", ["realizable", "agnostic", "model1", "model2"])
def test_worst_member_runs_once_per_view_per_run(monkeypatch, kind):
    # the setup builds each view's table; the exact-inner chunks only gather it
    calls = []
    worst_member = FiniteView.worst_member
    monkeypatch.setattr(FiniteView, "worst_member",
                        lambda self, labels, view: calls.append(view) or
                        worst_member(self, labels, view))
    cfg = load_config(kind)
    cfg.grid = [dict(entry, exact_inner=True) for entry in cfg.grid]
    cfg.trials = 2 * suites.CHUNK + 1
    suites.run_suite(cfg)
    assert sorted(calls) == (["rep", "true"] if kind.startswith("model") else ["true"])


def test_exact_inner_model1_trains_on_the_representatives():
    # each trial's least exact training loss, from member_error over the
    # representatives; model1's leaking true members would give other losses
    raw = load_config("model1")
    raw.grid = [dict(entry, exact_inner=True) for entry in raw.grid]
    cfg = check(dict(vars(raw)))
    s = suites._setup(cfg)
    n, trials = cfg.grid[0]["n"], 40
    slots = s.view.draw_clean_slots(seeding.stream(cfg.master_seed, 0, 0), trials * n)
    atoms = s.view.task.atoms()

    def least_loss(view):
        worst = np.array([[max(loss.member_error(h, u, y) for u in s.view.task.members_for(x, view))
                           for x, y, _ in atoms] for h in s.witnesses])
        return worst[:, slots].reshape(len(s.witnesses), trials, n).mean(axis=2).min(axis=0)

    got = suites._erm_chunk(cfg, s, 0, 0, 0, trials)["loss_emp"]
    assert got == pytest.approx(least_loss("rep"), abs=1e-12)
    assert got != pytest.approx(least_loss("true"), abs=1e-3)


@pytest.mark.parametrize("kind", ["realizable", "agnostic"])
def test_exact_inner_run_memory_is_bounded(tmp_path, kind):
    # interval D = 128: B = 8,257 behaviors, whose errors at all 256 * 50
    # slots of a chunk would take 845 MB as one float64 gather
    n, trials, bound = 50, 256, 128 << 20
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "kind": kind, "task": line_task(128), "hypothesis_class": {"tag": "interval-1d"},
        "grid": [{"n": n, "m": 1, "epsilon": 0.1, "exact_inner": True}], "trials": trials,
    }))
    cfg = load_config(kind, path=str(path))
    tracemalloc.start()
    try:
        report = suites.run_suite(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    behaviors = 128 * 129 // 2 + 1
    assert behaviors * trials * n * 8 > bound
    assert len(report.table["trial"]) == trials
    assert peak < bound, peak


def leaky_task(mass: float) -> dict:
    """Two atoms whose one member each puts ``mass`` on the other atom's point.

    The threshold at 3 mislabels only those two points and every other
    threshold mislabels a point of mass at least 1 - ``mass``, so no
    behavior has zero loss, though the best one's is below 1e-12.
    """
    return {"inline": {
        "atoms": [[0.0, -1, 0.5], [3.0, 1, 0.5]],
        "distributions": {"leak0": [[0.0, 1.0 - mass], [3.0, mass]],
                          "leak3": [[3.0, 1.0 - mass], [0.0, mass]]},
        "families": [{"x": 0.0, "true": ["leak0"], "k": 1},
                     {"x": 3.0, "true": ["leak3"], "k": 1}],
    }}


LEAKS = [1e-13, 5e-324]


@pytest.mark.parametrize("mass", LEAKS, ids=["1e-13", "5e-324"])
def test_realizable_rejects_a_leak_below_any_tolerance(tmp_path, capsys, mass):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "realizable", "trials": 2, "task": leaky_task(mass)}))
    assert cli_main(["realizable", "--config", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: task is not realizable") and "0 > 0" not in err
    # the message names the positive error: the leaked mass itself
    assert 0 < float(err.split()[-3]) <= 1e-13


@pytest.mark.parametrize("mass", LEAKS, ids=["1e-13", "5e-324"])
def test_exact_inner_leak_is_not_zero_loss(mass):
    # the best behavior's exact-inner loss rounds to at most 1e-12, or to 0,
    # yet it mislabels mass at every drawn atom, so no trial violates
    s = finite_setup(build_task(leaky_task(mass)), ThresholdClass(), 0.0)
    n, trials = 64, 20
    cfg = erm_config("realizable", n, 1, 0.0, True)
    slots = s.view.draw_clean_slots(seeding.stream(cfg.master_seed, 0, 0), trials * n)
    assert all(len(set(trial)) == 2 for trial in slots.reshape(trials, n).tolist())
    got = suites._erm_chunk(cfg, s, 0, 0, 0, trials)
    assert got["hypothesis"] == [{"classTag": "threshold-1d", "params": {"t": 3.0}}] * trials
    assert np.all(got["loss_emp"] <= 1e-12)
    assert not got["viol_erm"].any() and not got["viol_any"].any()


def test_exact_inner_viol_erm_reads_the_picked_behavior():
    # the threshold at 1 leaks 5e-324 at atom 0, so with one atom-0 slot among
    # three its float mean is 0.0, and argmin picks it before the zero-loss
    # threshold at 3; that pick has no zero loss, so viol_erm stays false
    task = build_task({"inline": {
        "atoms": [[0.0, -1, 0.25], [3.0, 1, 0.75]],
        "distributions": {"leak": [[0.0, 1.0], [1.0, 5e-324]], "at3": [[3.0, 1.0]]},
        "families": [{"x": 0.0, "true": ["leak"], "k": 1}, {"x": 3.0, "true": ["at3"], "k": 1}],
    }})
    s = finite_setup(task, ThresholdClass(), 0.0)
    n, trials = 3, 200
    cfg = erm_config("realizable", n, 1, 0.0, True)
    slots = s.view.draw_clean_slots(seeding.stream(cfg.master_seed, 0, 0), trials * n)
    one_leak = np.count_nonzero(slots.reshape(trials, n) == 0, axis=1) == 1
    assert one_leak.any() and not one_leak.all()
    got = suites._erm_chunk(cfg, s, 0, 0, 0, trials)
    picked = [h["params"]["t"] for h in got["hypothesis"]]
    assert all(t == 1.0 for t, one in zip(picked, one_leak) if one)
    assert np.array_equal(got["viol_erm"], ~one_leak)
    assert got["viol_any"].all()


@pytest.mark.parametrize("exact_inner", [False, True], ids=["sampled", "exact-inner"])
@pytest.mark.parametrize("case", ["threshold", "interval", "finite-table"])
def test_level_equal_to_a_loss_counts_as_reached(case, exact_inner):
    # on tasks with probabilities in sixteenths every loss is an exact sum, so
    # a level set to a behavior's loss is met exactly: ">=" counts it, and a
    # violating ERM pick is one of the behaviors viol_any counts
    boundary = erm_boundary = 0
    for seed in range(25):
        r = rng_for(2300 + seed)
        task = random_finite_task(r, max_points=6, grid=16)
        if case == "finite-table":
            points = task.domain_points(views=("true",))
            hclass = FiniteClass([random_table_hypothesis(r, points) for _ in range(6)])
        else:
            hclass = ThresholdClass() if case == "threshold" else IntervalClass()
        s = finite_setup(task, hclass, 0.0)
        assert [loss.population_dr_loss_exact(w, task) for w in s.witnesses] == s.dr_true.tolist()
        positive = np.unique(s.dr_true[s.dr_true > 0])
        if len(positive) == 0:
            continue
        level = float(positive[0])
        s.levels = [level]
        n, m, trials = int(r.integers(1, 4)), int(r.integers(1, 4)), 60
        cfg = erm_config("realizable", n, m, level, exact_inner, seed)
        if exact_inner:
            worst = s.view.worst_member(s.labels, "true")
            slots = s.view.draw_clean_slots(seeding.stream(cfg.master_seed, 0, 0), trials * n)
            zero = ~worst[:, slots].reshape(len(s.labels), trials, n).any(axis=2)
        else:
            rng = seeding.stream(cfg.master_seed, 0, 0)
            slots = s.view.draw_clean_slots(rng, trials * n)
            rows = s.view.draw_slot_counts(rng, slots, m, "true")
            zero = loss.dr_scores(s.labels, rows, trials, n, m).hits == 0
        got = suites._erm_chunk(cfg, s, 0, 0, 0, trials)
        reached = zero & (s.dr_true >= level)[:, None]
        assert np.array_equal(got["viol_any"], reached.any(axis=0))
        assert not np.any(got["viol_erm"] & ~got["viol_any"])
        # trials whose only zero-loss behaviors at or above the level sit on it
        on_level = reached.any(axis=0) & ~np.any(zero & (s.dr_true > level)[:, None], axis=0)
        assert got["viol_any"][on_level].all()
        boundary += int(np.count_nonzero(on_level))
        picked = (got["loss_pop"] == level) & (got["loss_emp"] == 0.0)
        assert got["viol_erm"][picked].all()
        erm_boundary += int(np.count_nonzero(picked))
    assert boundary > 0 and erm_boundary > 0


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
    monkeypatch.setattr(loss, "DR_S_MIN_SLOTS", 1)  # blocks as small as the budget asks
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
        want, want_scores, want_hits = reference_dr_s(view, labels, slots, counts, trials, n, m)
        for dr in (False, True):
            got = view.dr_s(labels, slots, rows, trials, n, m, dr=dr)
            assert np.array_equal(got.dr, want) if dr else got.dr is None
            assert np.array_equal(got.hits, want_hits)
            # the ERM reads the scores only at their minimum
            assert np.array_equal(got.ties, want_scores == want_scores.min(axis=0))
            assert np.array_equal(got.loss_emp, want_scores.min(axis=0))
    # the last run was the padded task's, with y = +1 slots to pad
    assert counts.shape[1] == 3 and np.any(view.atom_y[slots] == 1)


@pytest.mark.parametrize("block_bytes", [1, 5000, loss.DR_S_BLOCK_BYTES],
                         ids=["one-trial-blocks", "small-blocks", "default"])
def test_dr_scores_float32_rows_match_float64(monkeypatch, block_bytes):
    # rows built by hand over D = 17 points, so m = 2**24 needs no multinomial;
    # float32 must score exactly as float64 up to m = 2**24, then rows are float64
    monkeypatch.setattr(loss, "DR_S_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(loss, "DR_S_MIN_SLOTS", 1)  # blocks as small as the budget asks
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
        want = loss.dr_scores(labels, wide, trials, n, m, dr=True)
        for dr in (False, True):
            got = loss.dr_scores(labels, rows, trials, n, m, dr=dr)
            for name in ("hits", "ties", "loss_emp") + ("dr",) * dr:
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert got.loss_emp.dtype == np.float64 and want.dr.dtype == np.float64


def float_dr_scores(labels, rows, trials, n, m):
    """The float scorer ``dr_scores`` once was: (dr, scores), each behavior's mean of count / m.

    The products come from one dense float64 contraction.  dr adds the
    quotients left to right, the scores pairwise, as numpy sums a
    contiguous axis, and the ERM took its minimizers off the scores.
    """
    wide = rows.astype(float)
    plus = np.ones((rows.shape[2], len(labels)))
    plus[:-1] = labels.T == 1
    worst = np.max([plus.T @ member.T for member in wide], axis=0)
    per_trial = (worst / m).reshape(len(labels), trials, n)
    dr = per_trial[:, :, 0].copy()
    for i in range(1, n):
        dr += per_trial[:, :, i]
    return dr / n, per_trial.mean(axis=2)


def integer_hits(labels, rows, trials, n):
    """(B, trials) summed worst-member mistake counts, in int64."""
    plus = np.ones((rows.shape[2], len(labels)), np.int64)
    plus[:-1] = labels.T == 1
    worst = np.max([plus.T @ member.T for member in rows.astype(np.int64)], axis=0)
    return worst.reshape(len(labels), trials, n).sum(axis=2)


def random_rows(r, kmax, slots, n_d, m):
    """Member rows of random batches on random y = +-1 slots; some members are padding."""
    rows = loss.member_rows(kmax, slots, n_d, m)
    for i in range(slots):
        positive = bool(r.integers(2))
        for j in range(1 + int(r.integers(kmax))):
            counts = r.multinomial(m, r.dirichlet(np.full(n_d, 0.5)))
            loss.put_member_rows(rows, j, i, counts, positive, m)
    return rows


def assert_matches_float_oracle(labels, rows, trials, n, m):
    """``dr_scores`` against the float oracle, with and without dr; returns the scores."""
    want_dr, want_scores = float_dr_scores(labels, rows, trials, n, m)
    for dr in (False, True):
        got = loss.dr_scores(labels, rows, trials, n, m, dr=dr)
        assert np.array_equal(got.hits, integer_hits(labels, rows, trials, n))
        assert np.array_equal(got.ties, want_scores == want_scores.min(axis=0))
        assert got.loss_emp.tobytes() == want_scores.min(axis=0).tobytes()
        assert got.dr.tobytes() == want_dr.tobytes() if dr else got.dr is None
        # W == 0 is the float zero test
        assert np.array_equal(got.hits == 0, want_dr <= FLOAT_ZERO_TOL)
    return got


@pytest.mark.parametrize("block_bytes", [1, 5000, loss.DR_S_BLOCK_BYTES],
                         ids=["one-trial-blocks", "small-blocks", "default"])
def test_exact_scorer_matches_float_oracle(monkeypatch, block_bytes):
    # k = 1 to 3 members with padding rows, y = +-1 slots, n on either side
    # of numpy's 8-element pairwise-sum switch, and duplicate behaviors
    monkeypatch.setattr(loss, "DR_S_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(loss, "DR_S_MIN_SLOTS", 1)  # blocks as small as the budget asks
    ties = 0
    for seed in range(40):
        r = rng_for(1600 + seed)
        n_d, kmax = int(r.integers(1, 9)), int(r.integers(1, 4))
        trials, n, m = int(r.integers(1, 7)), (1, 2, 3, 8, 20, 50)[seed % 6], int(r.integers(1, 30))
        labels = r.choice(np.array([-1, 1], dtype=np.int8), size=(int(r.integers(1, 40)), n_d))
        got = assert_matches_float_oracle(labels, random_rows(r, kmax, trials * n, n_d, m),
                                          trials, n, m)
        ties += np.any(got.ties.sum(axis=0) > 1)
    assert ties > 0


@pytest.mark.parametrize("n, m", [(50, (1 << 19) + 1), (3, (1 << 24) + 1), (2, 1 << 30)],
                         ids=["float32-rows", "float64-rows", "float64-rows-2"])
def test_exact_scorer_sums_past_float32(n, m):
    # n * m > 2**24: float32 rows sum in float64, and float64 rows as they are
    r = rng_for(n)
    labels = r.choice(np.array([-1, 1], dtype=np.int8), size=(30, 6))
    rows = random_rows(r, 2, 4 * n, 6, m)
    assert rows.dtype == (np.float32 if m <= 1 << 24 else np.float64) and n * m > 1 << 24
    assert_matches_float_oracle(labels, rows, 4, n, m)


def test_exact_scorer_breaks_equal_hits_on_floats():
    # Three y = -1 slots of m = 10 draws over three points.  Behavior 0 hits
    # 1, 2 and 3 draws, behavior 1 hits 3, 2 and 1: W = 6 for both, but
    # 0.1 + 0.2 + 0.3 > 0.3 + 0.2 + 0.1 in floats, so the ERM takes
    # behavior 1, as a float argmin does (D2); behavior 2 hits everything.
    rows = loss.member_rows(1, 3, 3, 10)
    for i, counts in enumerate(([1, 3, 6], [2, 2, 6], [3, 1, 6])):
        loss.put_member_rows(rows, 0, i, np.array(counts), False, 10)
    labels = np.array([[1, -1, -1], [-1, 1, -1], [1, 1, 1]], dtype=np.int8)
    got = assert_matches_float_oracle(labels, rows, 1, 3, 10)
    assert got.hits[:, 0].tolist() == [6, 6, 30] and got.ties[:, 0].tolist() == [False, True, False]


def test_exact_scorer_takes_every_behavior_past_the_order_bound():
    # n = 2, m = 2**52 - 1: n * m * (n + 1) >= 2**52, where one more mistake
    # can round to a float loss no larger.  Behavior 1 mislabels one more
    # draw than behavior 0, and its float loss is no larger, so it is a
    # minimizer: only a scorer that takes every behavior as a candidate
    # finds it.
    n, m = 2, (1 << 52) - 1
    r = rng_for(52)
    labels = np.array([[1, -1, -1], [1, 1, -1]], dtype=np.int8)
    for _ in range(100):
        hit = r.integers(m // 2, m - 1, size=2)
        rows = loss.member_rows(1, 2, 3, m)
        for i in range(2):
            loss.put_member_rows(rows, 0, i, np.array([hit[i], i == 0, m - hit[i] - (i == 0)]),
                                 False, m)
        _, scores = float_dr_scores(labels, rows, 1, n, m)
        if scores[1, 0] <= scores[0, 0]:
            break
    got = assert_matches_float_oracle(labels, rows, 1, n, m)
    assert got.hits[1, 0] == got.hits[0, 0] + 1 and got.ties[1, 0]


def test_exact_scorer_allocates_no_float_quotient():
    # without dr, only the ERM candidates' quotients are formed: no
    # (B, slots) float64 array, which alone would take 8 bytes a product
    r = rng_for(8)
    trials, n, m = 20, 50, 50
    labels = r.choice(np.array([-1, 1], dtype=np.int8), size=(200, 30))
    rows = random_rows(r, 1, trials * n, 30, m)
    view = FiniteView(task_from_dict(PADDED_TASK))
    tracemalloc.start()
    try:
        view.dr_s(labels, None, rows, trials, n, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(labels) * trials * n * 8, peak


@pytest.mark.parametrize("index", [0, 1, 2], ids=["threshold-128", "interval-24", "rect-4x4"])
def test_dr_scores_temporaries_stay_within_one_block(index):
    # on the erm-ladder shapes, what dr_scores allocates past its results
    # stays within one block's bound, below the chunk's whole
    workloads = load_workloads()
    cfg = workloads.ladder_config(*workloads.LADDER[index])
    n, m, trials = cfg["grid"][0]["n"], cfg["grid"][0]["m"], cfg["trials"]
    view = FiniteView(build_task(cfg["task"]))
    labels, _ = view.behaviors(build_hypothesis_class(cfg["hypothesis_class"]))
    r = rng_for(1900 + index)
    slots = view.draw_clean_slots(r, trials * n)
    rows = view.draw_slot_counts(r, slots, m, "true").copy()
    tracemalloc.start()
    try:
        scores = loss.dr_scores(labels, rows, trials, n, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    results = sum(a.nbytes for a in scores if a is not None)
    # per trial: the worst hits and the next member's, then the candidates' quotients
    trial_bytes = n * len(labels) * (rows.itemsize * 2 + 8)
    block = loss.block_trials(n, trial_bytes)
    assert rows.shape[0] == 2 and block < trials
    assert peak - results <= block * trial_bytes, (peak - results, block * trial_bytes)


def test_draw_slot_counts_frees_each_batch():
    # one atom's multinomial counts are freed before the next atom's are
    # drawn: the peak is the rows plus the larger atom's counts
    view = FiniteView(build_task(line_task(256)))
    r = rng_for(256)
    slots = view.draw_clean_slots(r, 4000).copy()
    tracemalloc.start()
    try:
        rows = view.draw_slot_counts(r, slots, 50, "true")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    counts = np.bincount(slots).max() * view.n_points * 8
    assert peak < rows.nbytes + counts + (1 << 16), (peak, rows.nbytes, counts)


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


# m = 200 takes numpy's BTPE binomials; past m = 60 a fair two-point member does
@pytest.mark.parametrize("m", [1, 3, 50, 60, 61, 200])
@pytest.mark.parametrize("case", list(MEMBER_ROWS_CASES))
def test_multinomial_rows_match_oracle(case, m):
    build, member_view, k = MEMBER_ROWS_CASES[case]
    view = FiniteView(build(), views=(member_view,))
    assert view.max_k[member_view] == k
    probs, valid = view._members[member_view]
    point_mass = (np.count_nonzero(probs, axis=2) == 1) & (probs.max(axis=2) == 1.0)
    # a two-point member's batches come from raw words while numpy's first
    # binomial inverts its cdf; only the other members call multinomial
    first = np.take_along_axis(probs, np.argmax(probs > 0, axis=2)[:, :, None], axis=2)[:, :, 0]
    on_words = (np.count_nonzero(probs, axis=2) == 2) & (np.minimum(first, 1 - first) * m <= 30)
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
        assert r.multinomial_calls == np.count_nonzero(drawn & ~on_words)


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


# 0/1 outer tables whose bad atoms sit at the edges of categorical's cdf or
# around a zero-mass atom: (atom masses, which atoms the threshold gets wrong)
EDGE_TABLES = [
    ([0.5, 0.3, 0.2], [1, 0, 0]),
    ([0.5, 0.3, 0.2], [0, 0, 1]),
    ([0.2, 0.3, 0.5], [1, 0, 1]),
    ([0.4, 0.0, 0.6], [0, 1, 0]),
    ([0.25, 0.0, 0.25, 0.5], [1, 0, 1, 1]),
    ([0.0, 0.5, 0.5], [1, 0, 1]),
    ([0.5, 0.5, 0.0], [0, 1, 1]),
    ([0.5, 0.5], [1, 1]),
    ([1.0], [0]),
]


def edge_task(masses: list, bad: list) -> dict:
    """Inline outer task: one negative atom per mass, its member on the bad side or not."""
    return {"atoms": [[float(a), -1, p] for a, p in enumerate(masses)],
            "distributions": {f"u{a}": [[0.75 if b else 0.25, 1.0]] for a, b in enumerate(bad)},
            "families": [{"x": float(a), "true": [f"u{a}"], "k": 1} for a in range(len(bad))]}


def assert_outer_chunks_match_oracle(cfg) -> bool:
    """Check two chunks of the outer tail against the oracle; return whether the table is 0/1."""
    s = suites._hoeffding_setup(cfg)
    zero_one = bool(np.all((s.p_members == 0) | (s.p_members == 1)))
    assert (s.tally is not None) == zero_one
    trials = suites.CHUNK + 44
    for chunk, lo, hi in suites._chunk_ranges(trials, suites.CHUNK):
        got = suites._hoeffding_chunk(cfg, s, 0, chunk, lo, hi)
        devs, exceeded = outer_oracle(cfg, s, 0, chunk, lo, hi)
        assert got["deviation"].tobytes() == devs.tobytes()
        assert np.array_equal(got["exceeded"], exceeded)
    return zero_one


@pytest.mark.parametrize("tables", ["zero-one", "fractional", "mixed"])
def test_hoeffding_outer_chunk_matches_binomial_oracle(tables):
    # a 0/1 table sums each trial's raw words over the setup's tally of bad
    # atoms and draws no member batch; any other table draws every member through numpy
    for seed in range(8):
        r = rng_for(900 + seed)
        cfg = load_config("hoeffding", seed=seed)
        cfg.params = dict(cfg.params, outer_task={"inline": outer_task(r, tables)},
                          outer_m=int(r.choice([1, 2, 5, 40])))
        cfg.grid = [{"target": "outer", "n": int(r.choice([1, 7, 30])), "epsilon": 0.3}]
        zero_one = assert_outer_chunks_match_oracle(cfg)
        assert zero_one == (tables == "zero-one") or tables == "mixed"
    if tables == "zero-one":
        for i, (masses, bad) in enumerate(EDGE_TABLES):
            for n in (1, 3, 30):
                cfg = load_config("hoeffding", seed=i)
                cfg.params = dict(cfg.params, outer_task={"inline": edge_task(masses, bad)})
                cfg.grid = [{"target": "outer", "n": n, "epsilon": 0.3}]
                assert assert_outer_chunks_match_oracle(cfg)


def test_hoeffding_outer_chunk_counts_a_word_on_a_cut_past_it(monkeypatch):
    # choice sends a uniform equal to cdf[j] past atom j; random words almost
    # never sit on a cut, so the chunk gets fixed words on and under each cut
    cfg = load_config("hoeffding", seed=0)
    cfg.params = dict(cfg.params, outer_task={"inline": edge_task([0.25, 0.25, 0.5], [1, 0, 1])})
    cfg.grid = [{"target": "outer", "n": 4, "epsilon": 0.3}]
    s = suites._hoeffding_setup(cfg)
    first, steps = s.tally
    assert first == 1 and [step for step, _ in steps] == [-1, 1]
    edges = [int(cut) + d for _, cut in steps for d in (-1, 0)]
    words = np.array([edges, edges[::-1], edges[:2] * 2, edges[2:] * 2, [0, 2**64 - 1] * 2],
                     dtype=np.uint64)
    u = (words >> np.uint64(11)).astype(float) * 2.0 ** -53  # exact: under 2**53

    class Fixed(np.random.Generator):
        def __init__(self):
            super().__init__(np.random.Philox(0))

        def random(self, size=None, dtype=np.float64, out=None):
            return u.reshape(size)

    fixed_words = SimpleNamespace(bit_generator=SimpleNamespace(random_raw=words.reshape))
    monkeypatch.setattr(suites.seeding, "stream", lambda *path: fixed_words)
    got = suites._hoeffding_chunk(cfg, s, 0, 0, 0, len(words))
    slots = Fixed().choice(3, size=words.shape, p=s.view.atom_p)
    assert np.array_equal(got["deviation"], np.abs(np.array([1, 0, 1])[slots].mean(axis=1)
                                                   - s.expected))


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


# Slot counts that grow and shrink past the sizes of the view's scratch,
# with m changing the row template (m = 2**24 + 1 switches the rows to
# float64)
REUSE_SHAPES = [(2, 3, 5), (400, 50, 5), (1, 1, 5), (9, 7, 2), (60, 50, 3), (3, 2, (1 << 24) + 1),
                (2, 3, 5), (401, 53, 2)]


def test_reused_view_matches_fresh_view():
    # a view's scratch outlives every call; a fresh view's holds nothing stale
    task = task_from_dict(PADDED_TASK)
    view = FiniteView(task)
    labels, _ = view.behaviors(IntervalClass())
    r = rng_for(77)
    for trials, n, m in REUSE_SHAPES:
        ref = copy.deepcopy(r)
        slots = view.draw_clean_slots(r, trials * n).copy()
        before_rows = copy.deepcopy(r)
        rows = view.draw_slot_counts(r, slots, m, "true").copy()
        scores = [a.copy() for a in view.dr_s(labels, slots, rows, trials, n, m, dr=True)]
        fresh = FiniteView(task)
        want_slots = fresh.draw_clean_slots(ref, trials * n)
        want_rows = fresh.draw_slot_counts(ref, want_slots, m, "true")
        want_scores = fresh.dr_s(labels, want_slots, want_rows, trials, n, m, dr=True)
        assert slots.tobytes() == want_slots.tobytes()
        assert rows.dtype == want_rows.dtype and rows.tobytes() == want_rows.tobytes()
        for got, want in zip(scores, want_scores):
            assert got.tobytes() == want.tobytes()
        assert repr(r.bit_generator.state) == repr(ref.bit_generator.state)
        # and the oracle's: no stale padding row survives
        counts = oracle_counts(view, before_rows, slots, m, "true")
        assert np.array_equal(rows, oracle_rows(counts, view.atom_y[slots] == 1))
    assert len(view._templates) == 4


def checked_config(kind, **params):
    cfg = load_config(kind)
    cfg.params = dict(cfg.params, **params)
    return check(dict(vars(cfg)))


# one small config per suite whose setup builds a FiniteView
FINITE_SUITES = {
    "realizable": {}, "agnostic": {}, "model1": {}, "model2": {},
    "double-sampling": {"draws": 700}, "hoeffding": {},
}


def chunk_columns(kind, cfg, s, g, chunk):
    """One work unit's columns: 40 trials, or one for the per-trial double-sampling."""
    lo, hi = (chunk, chunk + 1) if kind == "double-sampling" else (40 * chunk, 40 * chunk + 40)
    return suites.SUITES[kind].chunk(cfg, s, g, chunk, lo, hi)


def assert_same_columns(got, want):
    assert list(got) == list(want)
    for name in want:
        if isinstance(want[name], np.ndarray):
            assert got[name].dtype == want[name].dtype, name
            assert got[name].tobytes() == want[name].tobytes(), name
        else:
            assert got[name] == want[name], name


@pytest.mark.parametrize("kind", list(FINITE_SUITES))
def test_finite_chunks_repeat_on_one_setup(kind):
    # a chunk's columns outlive the next chunk on the same setup, and a
    # chunk run again, or on a fresh setup, returns the same columns
    cfg = checked_config(kind, **FINITE_SUITES[kind])
    s = suites._setup(cfg)
    for g in range(len(cfg.grid)):
        first = chunk_columns(kind, cfg, s, g, 0)
        kept = copy.deepcopy(first)
        chunk_columns(kind, cfg, s, g, 1)
        assert_same_columns(first, kept)
        assert_same_columns(chunk_columns(kind, cfg, s, g, 0), kept)
        assert_same_columns(chunk_columns(kind, cfg, suites._setup(cfg), g, 0), kept)


def test_double_chunk_on_reused_view_matches_fresh_view():
    # the second batch's scores overwrite the first's in the view's scratch
    cfg = checked_config("double-sampling", draws=3000)
    s = suites._setup(cfg)
    reused = [suites._double_chunk(cfg, s, 0, trial, trial, trial + 1) for trial in range(4)]
    fresh = [suites._double_chunk(cfg, suites._setup(cfg), 0, trial, trial, trial + 1)
             for trial in range(4)]
    for got, want in zip(reused, fresh):
        assert_same_columns(got, want)
    # and both match batches drawn by fresh views and scored on fresh arrays
    n, m, epsilon = cfg.grid[0]["n"], cfg.grid[0]["m"], cfg.grid[0]["epsilon"]
    draws = cfg.params["draws"]

    def fresh_batch(rng):
        view = FiniteView(s.view.task)
        slots = view.draw_clean_slots(rng, draws * n)
        rows = view.draw_slot_counts(rng, slots, m, "true")
        return loss.dr_scores(s.labels, rows, draws, n, m, dr=True).dr

    for trial, got in enumerate(reused):
        rng = seeding.stream(cfg.master_seed, 0, trial)
        # the float losses' zero test, which the chunk's W == 0 must match
        dr = [fresh_batch(rng), fresh_batch(rng)]
        zero = dr[0] <= FLOAT_ZERO_TOL
        pr_a = np.any(zero & (s.dr_true[:, None] >= epsilon), axis=0).mean()
        pr_b = np.any(zero & (dr[1] >= epsilon / 2), axis=0).mean()
        assert (got["pr_a"][0], got["pr_b"][0]) == (pr_a, pr_b)
