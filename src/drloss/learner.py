"""The learning algorithm: sample a training set, then exact worst-case ERM.

A training set keeps the shape it is drawn in (``SampleSet.batches``): n
clean examples, then each example's batches of m draws, one per true
member in member order.

ERM is exact because behaviors are enumerated on the drawn point set and
each canonical witness is scored; nothing is approximated beyond the
sampling itself.  Thresholds count their mistakes per cut from the sorted
draws, in int64; every other class runs ``loss.dr_scores`` on its behavior
table (``behavior_table`` in ``hypo``) and member rows built as
``FiniteView`` draws them, summing counts exactly in float32 while
n * m <= 2**24, else in float64.  Both take the minimizers as
``loss.erm_ties`` does: the least integer count W, ties broken on float
means, every behavior a candidate once n * m * (n + 1) >= 2**52.  The
smoothing suite runs the threshold path; the other is the reference the
tests hold ``FiniteView.erm_on_sample`` to.  The first minimizer in the
class's canonical enumeration order wins, so identical (task, config,
generator state) reproduce the identical hypothesis bit for bit.
"""

from __future__ import annotations

import numpy as np

from .hypo import Threshold, ThresholdClass, threshold_cuts
from .loss import (
    SampleSet,
    TaskInstance,
    dr_scores,
    erm_ties,
    member_rows,
    put_member_rows,
)
from .perturb import sample


def draw_training_set(task: TaskInstance, n: int, m: int, rng: np.random.Generator) -> SampleSet:
    """n clean draws plus exactly m draws per (clean example, true family member).

    The n clean draws come first, then each example's batches in member
    order.  Each clean draw gets its own batches, even when the same x repeats.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    clean = tuple(sample(task.data_dist, n, rng))
    batches = tuple(tuple(tuple(sample(u, m, rng)) for u in task.members_for(x, "true"))
                    for x, _ in clean)
    return SampleSet(clean=clean, batches=batches, m=m)


def _batch_rows(s: SampleSet, points) -> np.ndarray:
    """(k, n, D + 1) ``dr_scores`` rows of the batches; a missing member's row stays 0."""
    index = {z: d for d, z in enumerate(points)}
    rows = member_rows(max(map(len, s.batches)), s.n, len(points), s.m)
    for i, ((_, y), members) in enumerate(zip(s.clean, s.batches)):
        for j, batch in enumerate(members):
            counts = np.bincount([index[z] for z in batch], minlength=len(points))
            put_member_rows(rows, j, i, counts, y == 1, s.m)
    return rows


def _threshold_ties(cuts: list, s: SampleSet) -> np.ndarray:
    """(cuts, 1) ERM minimizers among ``threshold_cuts``, as ``loss.erm_ties`` marks them.

    At cut t a batch's mistakes are its draws below t (y = +1) or the rest
    (y = -1), so one search of the cuts in sorted draws counts them at every
    cut: in the pooled draws of the one-member examples, then per example
    and worst member for the rest.  Only candidate cuts are counted per example.
    """
    at = np.asarray(cuts, dtype=float)
    stacked = [batch for members in s.batches for batch in members]  # in example, member order
    draws = np.sort(np.array(stacked, dtype=float), axis=1)
    first = np.cumsum([0, *map(len, s.batches)])
    positive = np.array([y == 1 for _, y in s.clean])

    def worst(i: int, cut_at: np.ndarray) -> np.ndarray:
        below = np.array([np.searchsorted(batch, cut_at) for batch in draws[first[i]:first[i + 1]]])
        return (below if positive[i] else s.m - below).max(axis=0)

    single = np.diff(first) == 1
    hits = np.zeros(len(cuts), np.int64)
    for sign in (True, False):
        pool = np.flatnonzero(single & (positive == sign))
        below = np.searchsorted(np.sort(draws[first[pool]], axis=None), at)
        hits += below if sign else len(pool) * s.m - below
    for i in np.flatnonzero(~single):
        hits += worst(i, at)
    ties = np.empty((len(cuts), 1), bool)
    erm_ties(hits[:, None], lambda b, _t: np.array([worst(i, at[b]) for i in range(s.n)]).T.copy(),
             s.n, s.m, ties)
    return ties


def drerm(hclass, s: SampleSet):
    """Exact minimizer of the empirical DR loss over the behaviors on ``s``.

    Behaviors are enumerated on every distinct point of the set (clean and
    perturbed); the first behavior attaining the minimum, in canonical
    enumeration order, supplies the returned witness.  Thresholds score their
    candidate cuts (``_threshold_ties``), every other class its behavior
    table through ``dr_scores``; both pick the minimizers as ``erm_ties`` does.
    """
    points = s.all_points()
    if isinstance(hclass, ThresholdClass):
        # Candidates match the enumeration order: ascending cut, sentinel last.
        cuts = threshold_cuts(points)
        return Threshold(float(cuts[int(np.argmax(_threshold_ties(cuts, s)[:, 0]))]))
    labels, witnesses = hclass.behavior_table(points)
    ties = dr_scores(labels, _batch_rows(s, points), 1, s.n, s.m).ties
    return witnesses[int(np.argmax(ties[:, 0]))]
