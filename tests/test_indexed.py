"""The finite engine's fast paths against the slow computations they replaced.

``reference_dr_s`` is the dense contraction over a (B, slots, D) mistake
tensor, and ``reference_erm`` the per-trial ERM: enumerate the behaviors on
the sampled points, score each, take the first minimum.  The fast paths
must agree with them bit for bit, because report bytes depend on both.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import drloss
import drloss.loss as loss
from drloss.hypo import (
    AxisRectClass,
    FiniteClass,
    IntervalClass,
    ThresholdClass,
    enumerate_behaviors,
)
from drloss.tasks import build_task, random_finite_task, random_table_hypothesis, task_from_dict
from drloss.xprun.indexed import FiniteView


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


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
    behaviors = enumerate_behaviors(hclass, [view.points[d] for d in sub_idx])
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
        counts = view.draw_slot_counts(r, slots, m, "true")
        _, scores = view.dr_s(labels, slots, counts, trials, n, m, True)
        for t in range(trials):
            trial = slice(t * n, (t + 1) * n)
            want, want_loss = reference_erm(view, hclass, slots[trial], counts[trial], m)
            got, got_loss = view.erm_on_sample(hclass, labels, witnesses, scores[:, t],
                                               slots[trial], counts[trial])
            assert got == want
            assert got.to_json() == want.to_json()
            assert got_loss == want_loss
            assert np.array_equal(view.labels_of(got), view.labels_of(want))
            ties += np.count_nonzero(scores[:, t] == want_loss) > 1
    assert ties > 0  # the canonical tie-break among minimizers was exercised


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
        full = enumerate_behaviors(hclass, points)
        labels = np.array([b.labels for b in full], dtype=np.int8)
        seen = np.flatnonzero(r.random(len(points)) < 0.6)
        if seen.size == 0:
            seen = np.array([int(r.integers(len(points)))])
        sub = enumerate_behaviors(hclass, [points[d] for d in seen])
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
        counts = view.draw_slot_counts(r, slots, m, member_view)
        want, want_scores = reference_dr_s(view, labels, slots, counts, trials, n, m)
        assert np.array_equal(view.dr_s(labels, slots, counts, trials, n, m), want)
        dr_s, scores = view.dr_s(labels, slots, counts, trials, n, m, True)
        assert np.array_equal(dr_s, want)
        assert np.array_equal(scores, want_scores)
    # the last run was the padded task's, with y = +1 slots to pad
    assert counts.shape[1] == 3 and np.any(view.atom_y[slots] == 1)


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
