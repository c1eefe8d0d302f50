import numpy as np
import pytest

from drloss.hypo import (
    AxisRectClass,
    DomainError,
    FiniteClass,
    IntervalClass,
    TableHypothesis,
    Threshold,
    ThresholdClass,
)
from drloss.learner import LearnConfig, draw_training_set, drerm
from drloss.loss import SampleSet, TaskInstance, empirical_dr_loss, population_dr_loss_exact
from drloss.perturb import DistributionError, DistributionFamily, FiniteDistribution
from drloss.seeding import stream
from drloss.tasks import random_finite_task, random_table_hypothesis, t1, with_label_noise
from drloss.xprun.indexed import FiniteView


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestDrawTrainingSet:
    def test_minimal_counts(self):
        data = FiniteDistribution([(0.0, -1)], [1.0])
        task = TaskInstance(data, {0.0: DistributionFamily([FiniteDistribution.point_mass(0.0)], k=1)})
        cfg = LearnConfig(n=1, m=1)
        s = draw_training_set(task, cfg, rng_for(0))
        assert s.n == 1 and len(s.perturbed) == 1

    def test_t1_counting_bound(self):
        cfg = LearnConfig(n=2, m=3)
        s = draw_training_set(t1(), cfg, rng_for(1))
        total_perturbations = sum(len(v) for v in s.perturbed.values())
        assert total_perturbations == 2 * 2 * 3
        assert total_perturbations + s.n <= 2 * 3 * 2 + 2  # n*m*k + n

    def test_point_mass_draws_equal_centers(self):
        data = FiniteDistribution([(0.0, -1), (5.0, 1)], [0.5, 0.5])
        fams = {x: DistributionFamily([FiniteDistribution.point_mass(x)], k=1) for x in (0.0, 5.0)}
        task = TaskInstance(data, fams)
        cfg = LearnConfig(n=4, m=3)
        s = draw_training_set(task, cfg, rng_for(2))
        for (i, _), batch in s.perturbed.items():
            assert all(z == s.clean[i][0] for z in batch)

    def test_missing_rep_set_rejected(self):
        cfg = LearnConfig(n=1, m=1, sample_from="rep")
        with pytest.raises(DistributionError):
            draw_training_set(t1(), cfg, rng_for(3))


class TestDrerm:
    def test_realizable_reaches_zero(self):
        cfg = LearnConfig(n=20, m=20)
        s = draw_training_set(t1(), cfg, rng_for(4))
        h = drerm(ThresholdClass(), s)
        assert empirical_dr_loss(h, s) == 0.0

    def test_t1_witness_in_unit_window(self):
        # with every support point sampled, the zero behavior's canonical cut is 2
        cfg = LearnConfig(n=30, m=30)
        s = draw_training_set(t1(), cfg, rng_for(5))
        h = drerm(ThresholdClass(), s)
        assert 1.0 < h.t <= 2.0

    def test_constant_class_returns_constant(self):
        const = TableHypothesis({z: -1 for z in (0.0, 1.0, 2.0, 3.0)})
        cfg = LearnConfig(n=5, m=5)
        s = draw_training_set(t1(), cfg, rng_for(6))
        assert drerm(FiniteClass([const]), s) is const

    def test_full_rescan_optimality(self):
        # the returned hypothesis never loses to any enumerated witness
        for seed in range(15):
            r = rng_for(100 + seed)
            task = random_finite_task(r)
            cfg = LearnConfig(n=6, m=4)
            s = draw_training_set(task, cfg, r)
            h = drerm(ThresholdClass(), s)
            best = empirical_dr_loss(h, s)
            for b in ThresholdClass().enumerate_behaviors(s.all_points()):
                assert best <= empirical_dr_loss(b.witness, s) + 1e-12

    def test_threshold_sorted_cuts_match_enumeration(self):
        # a set of more than 64 distinct points, against direct behavior scoring
        data = FiniteDistribution([(0.0, -1), (3.0, 1)], [0.5, 0.5])
        fams = {
            0.0: DistributionFamily([FiniteDistribution.uniform([float(i) / 40 for i in range(80)])], k=1),
            3.0: DistributionFamily([FiniteDistribution.point_mass(3.0)], k=1),
        }
        task = TaskInstance(data, fams)
        cfg = LearnConfig(n=6, m=30)
        s = draw_training_set(task, cfg, rng_for(7))
        assert len(s.all_points()) > 64
        h = drerm(ThresholdClass(), s)
        best = empirical_dr_loss(h, s)
        scores = [(empirical_dr_loss(b.witness, s), i)
                  for i, b in enumerate(ThresholdClass().enumerate_behaviors(s.all_points()))]
        min_score, min_idx = min(scores)
        assert best == pytest.approx(min_score, abs=1e-12)
        # canonical tie-break: first behavior attaining the minimum
        first_min = next(i for sc, i in scores if sc <= min_score + 1e-12)
        assert h == ThresholdClass().enumerate_behaviors(s.all_points())[first_min].witness


def random_sample_set(r, pool, n: int, m: int) -> SampleSet:
    """n clean examples from ``pool`` with random labels, 1-3 members, m draws each."""
    clean = tuple((pool[int(r.integers(len(pool)))], int(r.choice([-1, 1]))) for _ in range(n))
    perturbed = {(i, j): tuple(pool[int(d)] for d in r.integers(0, len(pool), m))
                 for i in range(n) for j in range(int(r.integers(1, 4)))}
    return SampleSet(clean=clean, perturbed=perturbed, m=m)


DRERM_CASES = ["threshold-few-points", "threshold-many-points", "interval", "axis-rect-2",
               "finite-table"]


@pytest.mark.parametrize("case", DRERM_CASES)
def test_drerm_returns_first_minimizer(case):
    """Each class's scoring path against scoring every enumerated behavior.

    m is a power of two, so every loss is an exact dyadic sum and tied
    behaviors compare equal whatever order a path sums in.
    """
    ties = 0
    for seed in range(40):
        r = rng_for(700 + seed)
        n, m = int(r.integers(1, 9)), int(2 ** r.integers(0, 4))
        if case == "axis-rect-2":
            size = int(r.integers(1, 5))
            pool = [(float(i), float(j)) for i in range(size) for j in range(size)]
        elif case == "threshold-many-points":
            n, m = 8, 16
            pool = [float(v) for v in r.choice(400, size=int(r.integers(65, 120)), replace=False) / 4]
        else:
            pool = [float(v) for v in r.choice(40, size=int(r.integers(1, 11)), replace=False) / 4]
        s = random_sample_set(r, pool, n, m)
        points = s.all_points()
        hclass = {"interval": IntervalClass(), "axis-rect-2": AxisRectClass(2),
                  "finite-table": FiniteClass([random_table_hypothesis(r, points)
                                               for _ in range(int(r.integers(1, 12)))])
                  }.get(case, ThresholdClass())
        assert (len(points) > 64) == (case == "threshold-many-points")
        behaviors = hclass.enumerate_behaviors(points)
        losses = [empirical_dr_loss(b.witness, s) for b in behaviors]
        assert drerm(hclass, s) == behaviors[losses.index(min(losses))].witness
        ties += losses.count(min(losses)) > 1
    assert ties > 0  # the canonical tie-break among minimizers was exercised


def test_drerm_threshold_on_tuple_points_raises_domain_error():
    s = SampleSet(clean=(((0.0, 1.0), -1),), perturbed={(0, 0): ((0.0, 1.0), (2.0, 3.0))}, m=2)
    with pytest.raises(DomainError):
        drerm(ThresholdClass(), s)


def fit_threshold(task, n: int, m: int, seed: int):
    """Draw a training set on stream (seed, 0) and run threshold ERM on it.

    Returns the hypothesis with its empirical and exact population losses.
    """
    s = draw_training_set(task, LearnConfig(n=n, m=m), stream(seed, 0))
    h = drerm(ThresholdClass(), s)
    return h, empirical_dr_loss(h, s), population_dr_loss_exact(h, task)


class TestLearn:
    def test_reproducible_bit_for_bit(self):
        assert fit_threshold(t1(), 25, 10, 99) == fit_threshold(t1(), 25, 10, 99)

    def test_realizable_t1_mostly_zero_population_loss(self):
        zero = sum(fit_threshold(t1(), 50, 50, trial)[2] == 0.0 for trial in range(200))
        assert zero >= 190  # >= 95% of 200 seeded trials

    def test_agnostic_never_beats_best_in_class(self):
        task = with_label_noise(t1(), 0.1)
        view = FiniteView(task)
        labels, _ = view.behaviors(ThresholdClass())
        best = float(view.dr_exact(labels, "true").min())
        for trial in range(20):
            assert fit_threshold(task, 30, 30, 500 + trial)[2] >= best - 1e-12

    def test_tiny_budget_still_total(self):
        _, empirical, population = fit_threshold(t1(), 1, 1, 3)
        assert 0.0 <= empirical <= 1.0
        assert 0.0 <= population <= 1.0

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            LearnConfig(n=0, m=1)
        with pytest.raises(ValueError):
            LearnConfig(n=1, m=1, sample_from="other")
