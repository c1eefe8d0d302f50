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
from drloss import learner
from drloss.hypo import threshold_cuts
from drloss.learner import draw_training_set, drerm
from drloss.loss import SampleSet, TaskInstance, empirical_dr_loss, population_dr_loss_exact
from drloss.perturb import (
    DistributionError,
    DistributionFamily,
    FiniteDistribution,
    GaussianDistribution,
    sample,
)
from drloss.seeding import stream
from drloss.tasks import t1, with_label_noise
from drloss.xprun.indexed import FiniteView

from generators import random_finite_task, random_table_hypothesis, rng_for


class TestDrawTrainingSet:
    def test_minimal_counts(self):
        data = FiniteDistribution([(0.0, -1)], [1.0])
        task = TaskInstance(data, {0.0: DistributionFamily([FiniteDistribution.point_mass(0.0)], k=1)})
        s = draw_training_set(task, 1, 1, rng_for(0))
        assert s.n == 1 and s.batches == (((0.0,),),)

    def test_t1_counting_bound(self):
        s = draw_training_set(t1(), 2, 3, rng_for(1))
        total_perturbations = sum(len(batch) for members in s.batches for batch in members)
        assert total_perturbations == 2 * 2 * 3
        assert total_perturbations + s.n <= 2 * 3 * 2 + 2  # n*m*k + n

    def test_point_mass_draws_equal_centers(self):
        data = FiniteDistribution([(0.0, -1), (5.0, 1)], [0.5, 0.5])
        fams = {x: DistributionFamily([FiniteDistribution.point_mass(x)], k=1) for x in (0.0, 5.0)}
        task = TaskInstance(data, fams)
        s = draw_training_set(task, 4, 3, rng_for(2))
        for (x, _), members in zip(s.clean, s.batches):
            assert members == ((x,) * 3,)

    def test_draw_order(self):
        # the n clean draws, then per example one batch of m per true member, on one stream
        task, r = t1(), rng_for(8)
        clean = tuple(sample(task.data_dist, 5, r))
        batches = []
        for x, _ in clean:
            members = task.members_for(x, "true")
            assert len(members) == 2
            batches.append((tuple(sample(members[0], 3, r)), tuple(sample(members[1], 3, r))))
        s = draw_training_set(task, 5, 3, rng_for(8))
        assert s.clean == clean and s.batches == tuple(batches)

    def test_missing_rep_set_rejected(self):
        # training reads only the true sets, so a task without representative
        # sets trains; asking its families for the set they lack still fails
        task = t1()
        s = draw_training_set(task, 3, 2, rng_for(3))
        for (x, _), members in zip(s.clean, s.batches):
            for u, batch in zip(task.members_for(x, "true"), members, strict=True):
                assert set(batch) <= set(u.support)
        with pytest.raises(DistributionError):
            task.members_for(0.0, "rep")


class TestDrerm:
    def test_realizable_reaches_zero(self):
        s = draw_training_set(t1(), 20, 20, rng_for(4))
        h = drerm(ThresholdClass(), s)
        assert empirical_dr_loss(h, s) == 0.0

    def test_t1_witness_in_unit_window(self):
        # with every support point sampled, the zero behavior's canonical cut is 2
        s = draw_training_set(t1(), 30, 30, rng_for(5))
        h = drerm(ThresholdClass(), s)
        assert 1.0 < h.t <= 2.0

    def test_constant_class_returns_constant(self):
        const = TableHypothesis({z: -1 for z in (0.0, 1.0, 2.0, 3.0)})
        s = draw_training_set(t1(), 5, 5, rng_for(6))
        assert drerm(FiniteClass([const]), s) is const

    def test_full_rescan_optimality(self):
        # the returned hypothesis never loses to any enumerated witness
        for seed in range(15):
            r = rng_for(100 + seed)
            task = random_finite_task(r)
            s = draw_training_set(task, 6, 4, r)
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
        s = draw_training_set(task, 6, 30, rng_for(7))
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
    batches = tuple(tuple(tuple(pool[int(d)] for d in r.integers(0, len(pool), m))
                          for _ in range(int(r.integers(1, 4)))) for _ in range(n))
    return SampleSet(clean=clean, batches=batches, m=m)


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
    s = SampleSet(clean=(((0.0, 1.0), -1),), batches=((((0.0, 1.0), (2.0, 3.0)),),), m=2)
    with pytest.raises(DomainError):
        drerm(ThresholdClass(), s)


def scores_threshold(cuts: list, s: SampleSet) -> np.ndarray:
    """The float threshold scorer ``drerm`` once ran: each cut's mean of worst count / m.

    One searchsorted pass per batch: at cut t a batch misclassifies its
    draws >= t (y = -1) or < t (y = +1).  The ERM cut was the first float
    minimum.
    """
    candidates = np.asarray(cuts)
    worst = np.zeros((len(candidates), s.n))
    for i, ((_, y), members) in enumerate(zip(s.clean, s.batches)):
        for batch in members:
            below = np.searchsorted(np.sort(np.asarray(batch, dtype=float)), candidates, side="left")
            wrong = below if y == 1 else (s.m - below)
            np.maximum(worst[:, i], wrong / s.m, out=worst[:, i])
    return worst.mean(axis=1)


def gaussian_task(members: int) -> TaskInstance:
    """The smoothing task's two atoms, each with one or two Gaussian members."""
    data = FiniteDistribution([(0.0, -1), (3.0, 1)], [0.5, 0.5])
    return TaskInstance(data, {x: DistributionFamily([GaussianDistribution(x + 0.7 * j, 1.0 + j)
                                                      for j in range(members)], k=members)
                               for x in (0.0, 3.0)})


def finite_sample_set(r, members: int, negative_only: bool) -> SampleSet:
    """Draws from a few quarter points, so that cuts tie; clean points may go undrawn."""
    pool = [float(v) for v in r.choice(40, size=int(r.integers(1, 8)), replace=False) / 4]
    n, m = int(r.integers(1, 9)), int(r.integers(1, 7))
    clean = tuple((pool[int(r.integers(len(pool)))],
                   -1 if negative_only else int(r.choice([-1, 1]))) for _ in range(n))
    batches = tuple(tuple(tuple(pool[int(d)] for d in r.integers(0, len(pool), m))
                          for _ in range(members)) for _ in range(n))
    return SampleSet(clean=clean, batches=batches, m=m)


@pytest.mark.parametrize("case", ["gaussian-1", "gaussian-2", "finite-1", "finite-2"])
def test_threshold_erm_matches_float_oracle(case):
    # one member per example takes the pooled counts, two the per-example
    # max; the Gaussian sets include three at the smoothing suite's n = m = 100
    members = int(case[-1])
    ties = sentinel = 0
    for seed in range(30):
        r = rng_for(1700 + seed)
        if case.startswith("gaussian"):
            n, m = (100, 100) if seed < 3 else (int(r.integers(1, 30)), int(r.integers(1, 30)))
            s = draw_training_set(gaussian_task(members), n, m, r)
        else:
            # all-negative sets leave the all-minus sentinel cut as the minimizer
            s = finite_sample_set(r, members, negative_only=seed % 3 == 0)
        cuts = threshold_cuts(s.all_points())
        want = scores_threshold(cuts, s)
        assert np.array_equal(learner._threshold_ties(cuts, s)[:, 0], want == want.min())
        best = int(np.argmin(want))
        assert drerm(ThresholdClass(), s) == Threshold(float(cuts[best]))
        ties += np.count_nonzero(want == want.min()) > 1
        sentinel += best == len(cuts) - 1
    if case.startswith("finite"):
        assert ties > 0 and sentinel > 0


def fit_threshold(task, n: int, m: int, seed: int):
    """Draw a training set on stream (seed, 0) and run threshold ERM on it.

    Returns the hypothesis with its empirical and exact population losses.
    """
    s = draw_training_set(task, n, m, stream(seed, 0))
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
            draw_training_set(t1(), 0, 1, rng_for(0))
        with pytest.raises(ValueError):
            draw_training_set(t1(), 1, 0, rng_for(0))
