"""The learning algorithm: sample a training set, then exact worst-case ERM.

ERM is exact because behaviors are enumerated on the drawn point set and
each canonical witness is scored; nothing is approximated beyond the
sampling itself.  Each class has one scoring path: sorted candidate cuts
for thresholds, ``loss.dr_scores`` (the finite engine's contraction) for
the rest, on the class's behavior table (``behavior_table`` in ``hypo``)
and member rows built from the batches as ``FiniteView`` draws them.  Ties
are broken by the enumeration order of the class, which is canonical and
deterministic, so identical (task, config, seed) reproduce the identical
hypothesis bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import seeding
from .hypo import Threshold, ThresholdClass, threshold_cuts
from .loss import (
    SampleSet,
    TaskInstance,
    dr_scores,
    empirical_dr_loss,
    member_rows,
    population_dr_loss_exact,
    put_member_rows,
)
from .perturb import sample


@dataclass(frozen=True)
class LearnConfig:
    """Sampling schedule and class for one learning run."""

    n: int
    m: int
    hypothesis_class: object
    sample_from: str = "true"
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be >= 1")
        if self.sample_from not in ("true", "rep"):
            raise ValueError("sample_from must be 'true' or 'rep'")


def draw_training_set(task: TaskInstance, cfg: LearnConfig, rng: np.random.Generator) -> SampleSet:
    """n clean draws plus exactly m draws per (clean example, family member).

    Each clean draw gets its own batches even when the same x repeats; the
    per-pair batch sharing used by the Monte Carlo loss estimator applies
    to evaluation, not to training sets.
    """
    clean = tuple(sample(task.data_dist, cfg.n, rng))
    perturbed = {}
    for i, (x, _) in enumerate(clean):
        for j, u in enumerate(task.members_for(x, cfg.sample_from)):
            perturbed[(i, j)] = tuple(sample(u, cfg.m, rng))
    return SampleSet(clean=clean, perturbed=perturbed, m=cfg.m, sampled_from=cfg.sample_from)


def _batch_rows(s: SampleSet, points) -> np.ndarray:
    """(k, n, D + 1) ``dr_scores`` rows of the batches; a missing member's row stays 0."""
    index = {z: d for d, z in enumerate(points)}
    rows = member_rows(1 + max(j for _, j in s.perturbed), s.n, len(points), s.m)
    for (i, j), batch in s.perturbed.items():
        counts = np.bincount([index[z] for z in batch], minlength=len(points))
        put_member_rows(rows, j, i, counts, s.clean[i][1] == 1, s.m)
    return rows


def _scores_threshold(cuts: list, s: SampleSet) -> np.ndarray:
    """Empirical DR loss of each cut of ``threshold_cuts`` on the sorted points.

    For a batch with label y, the misclassified count at cut t is the
    number of draws >= t (y = -1) or < t (y = +1); both come from one
    searchsorted pass per batch, so the cost is near-linear in the sample
    size instead of quadratic.
    """
    candidates = np.asarray(cuts)
    worst = np.zeros((len(candidates), s.n))
    for (i, _), batch in s.perturbed.items():
        below = np.searchsorted(np.sort(np.asarray(batch, dtype=float)), candidates, side="left")
        wrong = below if s.clean[i][1] == 1 else (s.m - below)
        np.maximum(worst[:, i], wrong / s.m, out=worst[:, i])
    return worst.mean(axis=1)


def drerm(hclass, s: SampleSet):
    """Exact minimizer of the empirical DR loss over the behaviors on ``s``.

    Behaviors are enumerated on every distinct point of the set (clean and
    perturbed); the first behavior attaining the minimum, in canonical
    enumeration order, supplies the returned witness.  Thresholds score their
    candidate cuts, every other class its behavior table through ``dr_scores``.
    """
    points = s.all_points()
    if isinstance(hclass, ThresholdClass):
        # Candidates match the enumeration order: ascending cut, sentinel last.
        cuts = threshold_cuts(points)
        return Threshold(float(cuts[int(np.argmin(_scores_threshold(cuts, s)))]))
    labels, witnesses = hclass.behavior_table(points)
    _, scores = dr_scores(labels, _batch_rows(s, points), 1, s.n, s.m, True)
    return witnesses[int(np.argmin(scores[:, 0]))]


class LearnResult(NamedTuple):
    hypothesis: object
    empirical_loss: float
    population_loss: float


def learn(task: TaskInstance, cfg: LearnConfig) -> LearnResult:
    """Draw a training set, run exact ERM, and score the result exactly.

    The exact population score is taken against the true family view, which
    requires a fully finite task; Gaussian-family training should call
    ``draw_training_set`` and ``drerm`` directly and evaluate with a
    domain-specific oracle.
    """
    rng = seeding.stream(cfg.seed, 0)
    s = draw_training_set(task, cfg, rng)
    h = drerm(cfg.hypothesis_class, s)
    return LearnResult(h, empirical_dr_loss(h, s), population_dr_loss_exact(h, task, view="true"))
