import numpy as np
import pytest

from drloss.derand import AttackTask, RandomizedClassifier, worst_point_errors
from drloss.hypo import TableHypothesis, Threshold
from drloss.loss import (
    SampleSet,
    TaskInstance,
    empirical_dr_loss,
    population_dr_loss_exact,
    population_dr_loss_mc,
)
from drloss.perturb import (
    DistributionError,
    DistributionFamily,
    FiniteDistribution,
    GaussianDistribution,
    sample,
)
from drloss.tasks import random_finite_task, random_table_hypothesis, t1


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


def brute_population_loss(h, task, view="true"):
    """Independent re-derivation: plain double loop, no numpy, no shortcuts."""
    total = 0.0
    for (x, y), p in zip(task.data_dist.support, task.data_dist.probs):
        worst = 0.0
        for u in task.family_of[x].members(view):
            err = sum(q for z, q in zip(u.support, u.probs) if h.predict(z) != y)
            worst = max(worst, err)
        total += p * worst
    return total


class TestTaskInstance:
    def test_requires_family_for_every_atom(self):
        data = FiniteDistribution([(0.0, -1), (1.0, 1)], [0.5, 0.5])
        with pytest.raises(ValueError):
            TaskInstance(data, {0.0: DistributionFamily([FiniteDistribution.point_mass(0.0)], k=1)})

    def test_rejects_bad_label(self):
        data = FiniteDistribution([(0.0, 2)], [1.0])
        with pytest.raises(ValueError):
            TaskInstance(data, {0.0: DistributionFamily([FiniteDistribution.point_mass(0.0)], k=1)})

    def test_domain_points_union(self):
        assert t1().domain_points() == [0.0, 1.0, 2.0, 3.0]


def two_example_sample():
    # n=2, k=2, per-example member losses {(0.0, 0.5), (0.25, 0.0)} under t=1.5
    clean = ((0.0, -1), (3.0, 1))
    perturbed = {
        (0, 0): (0.0, 0.0, 0.0, 0.0),     # loss 0.0
        (0, 1): (0.0, 2.0, 0.0, 2.0),     # loss 0.5 (2.0 labeled +1, true -1)
        (1, 0): (3.0, 3.0, 3.0, 1.0),     # loss 0.25 (1.0 labeled -1, true +1)
        (1, 1): (3.0, 3.0, 3.0, 3.0),     # loss 0.0
    }
    return SampleSet(clean=clean, perturbed=perturbed, m=4)


class TestEmpiricalLoss:
    def test_perfect_classifier(self):
        s = SampleSet(clean=((0.0, -1),), perturbed={(0, 0): (0.0, 0.0)}, m=2)
        assert empirical_dr_loss(Threshold(1.0), s) == 0.0

    def test_single_average(self):
        s = SampleSet(clean=((0.0, -1),), perturbed={(0, 0): (0.0, 0.0, 0.0, 2.0)}, m=4)
        assert empirical_dr_loss(Threshold(1.5), s) == 0.25

    def test_max_then_average(self):
        assert empirical_dr_loss(Threshold(1.5), two_example_sample()) == pytest.approx(0.375)

    def test_rejects_wrong_batch_length(self):
        with pytest.raises(ValueError):
            SampleSet(clean=((0.0, -1),), perturbed={(0, 0): (0.0,)}, m=2)

    @pytest.mark.parametrize("clean, keys", [
        (((0.0, -1),), [(0, 0), (0, 2)]),
        (((0.0, -1),), [(0, 0), (5, 0)]),
        (((0.0, -1), (3.0, 1)), [(0, 0)]),
        (((0.0, -1),), [(0, 1)]),
        (((0.0, -1),), [0]),
    ], ids=["member-gap", "example-out-of-range", "example-without-batch",
            "no-member-zero", "key-not-a-pair"])
    def test_rejects_malformed_batch_keys(self, clean, keys):
        # every scorer walks batches (i, 0), ..., (i, k - 1) for each clean example i
        with pytest.raises(ValueError):
            SampleSet(clean=clean, perturbed={key: (0.0, 0.0) for key in keys}, m=2)


class TestExactPopulationLoss:
    def test_t1_zero_loss_threshold(self):
        assert population_dr_loss_exact(Threshold(1.5), t1()) == 0.0

    def test_t1_quarter_loss(self):
        assert population_dr_loss_exact(Threshold(2.5), t1()) == pytest.approx(0.25)

    def test_constant_wrong_is_one(self):
        h = TableHypothesis({0.0: 1, 1.0: 1, 2.0: -1, 3.0: -1})  # wrong everywhere
        assert population_dr_loss_exact(h, t1()) == 1.0

    def test_rejects_gaussian_members(self):
        data = FiniteDistribution([(0.0, -1)], [1.0])
        task = TaskInstance(data, {0.0: DistributionFamily([GaussianDistribution(0.0, 1.0)], k=1)})
        with pytest.raises(DistributionError):
            population_dr_loss_exact(Threshold(0.0), task)

    def test_matches_brute_force_on_random_tasks(self):
        for seed in range(40):
            r = rng_for(seed)
            task = random_finite_task(r)
            h = random_table_hypothesis(r, task.domain_points())
            val = population_dr_loss_exact(h, task)
            assert 0.0 <= val <= 1.0
            assert val == pytest.approx(brute_population_loss(h, task), abs=1e-12)

    def test_monotone_in_family(self):
        for seed in range(25):
            r = rng_for(1000 + seed)
            task = random_finite_task(r)
            h = random_table_hypothesis(r, task.domain_points())
            base = population_dr_loss_exact(h, task)
            x0 = task.atoms()[0][0]
            fam = task.family_of[x0]
            extra = FiniteDistribution(task.domain_points(),
                                       list(r.dirichlet([1.0] * len(task.domain_points()))))
            grown = dict(task.family_of)
            grown[x0] = DistributionFamily(fam.true_set + (extra,), k=fam.k + len(fam.true_set) + 1)
            assert population_dr_loss_exact(h, TaskInstance(task.data_dist, grown)) >= base - 1e-12

    def test_point_mass_families_reduce_to_zero_one_risk(self):
        for seed in range(25):
            r = rng_for(2000 + seed)
            n_pts = int(r.integers(2, 6))
            pts = [float(i) for i in range(n_pts)]
            labels = [int(v) for v in r.choice([-1, 1], size=n_pts)]
            probs = r.dirichlet([1.0] * n_pts)
            data = FiniteDistribution(list(zip(pts, labels)), list(probs))
            fams = {x: DistributionFamily([FiniteDistribution.point_mass(x)], k=1) for x in pts}
            task = TaskInstance(data, fams)
            h = random_table_hypothesis(r, pts)
            risk = sum(p for (x, y), p in zip(data.support, data.probs) if h.predict(x) != y)
            assert population_dr_loss_exact(h, task) == pytest.approx(risk, abs=1e-12)


class TestMonteCarloLoss:
    def test_fully_degenerate_task_is_exact(self):
        data = FiniteDistribution([(0.0, -1)], [1.0])
        fam = {0.0: DistributionFamily([FiniteDistribution.point_mass(2.0)], k=1)}
        task = TaskInstance(data, fam)
        h = Threshold(1.0)  # 2.0 -> +1, always wrong
        est = population_dr_loss_mc(h, task, n=17, m=9, rng=rng_for(5))
        assert est.value == population_dr_loss_exact(h, task) == 1.0

    def test_t1_large_sample_close_to_exact(self):
        est = population_dr_loss_mc(Threshold(2.5), t1(), n=10**4, m=10**3, rng=rng_for(42))
        assert abs(est.value - 0.25) <= 0.01
        assert abs(est.value - 0.25) <= 3.0 * est.stderr

    def test_gaussian_sigma_to_zero(self):
        data = FiniteDistribution([(0.0, -1), (3.0, 1)], [0.5, 0.5])
        fams = {x: DistributionFamily([GaussianDistribution(x, 1e-9)], k=1) for x in (0.0, 3.0)}
        task = TaskInstance(data, fams)
        est = population_dr_loss_mc(Threshold(1.5), task, n=200, m=50, rng=rng_for(7))
        assert est.value == 0.0

    def test_stderr_is_calibrated(self):
        # z-scores should rarely leave +-4 when se is honest
        bad = 0
        for seed in range(60):
            r = rng_for(3000 + seed)
            task = random_finite_task(r)
            h = random_table_hypothesis(r, task.domain_points())
            exact = population_dr_loss_exact(h, task)
            est = population_dr_loss_mc(h, task, n=2000, m=2000, rng=r)
            if est.stderr == 0.0:
                assert est.value == pytest.approx(exact, abs=1e-12)
            elif abs(est.value - exact) > 4.0 * est.stderr:
                bad += 1
        assert bad <= 1

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            population_dr_loss_mc(Threshold(0.0), t1(), n=0, m=1, rng=rng_for(0))


class TestEmpiricalConvergence:
    def test_gap_shrinks_with_sample_size(self):
        # fixed h with nonzero loss; median |emp - exact| decreases over n=m grid
        from drloss.learner import LearnConfig, draw_training_set
        task = t1()
        h = Threshold(2.5)
        exact = population_dr_loss_exact(h, task)
        medians = []
        for size in (10, 100, 1000):
            gaps = []
            for seed in range(9):
                cfg = LearnConfig(n=size, m=size)
                s = draw_training_set(task, cfg, rng_for(9000 + 31 * seed + size))
                emp = empirical_dr_loss(h, s)
                assert 0.0 <= emp <= 1.0
                gaps.append(abs(emp - exact))
            medians.append(sorted(gaps)[len(gaps) // 2])
        assert medians[0] > medians[1] > medians[2]


def coin_classifier(p_wrong_by_point, grid=10):
    """Randomness is a finite grid on [0,1); wrong iff draw < p(x)."""
    randomness = FiniteDistribution.uniform([(i + 0.5) / grid for i in range(grid)])

    def evaluate(x, r):
        return -1 if r < p_wrong_by_point.get(x, 0.0) else 1

    return RandomizedClassifier(evaluate=evaluate, randomness=randomness)


def worst_error(classifier, x, y, a_set) -> float:
    """Exact worst per-draw error over the attack set ``a_set`` of (x, y)."""
    task = AttackTask(FiniteDistribution([(x, y)], [1.0]), {x: tuple(a_set)})
    return worst_point_errors(classifier, task)[(x, y)]


class TestAdversarialPointLoss:
    """The worst expected error over A(x) that the derand suites compute exactly."""

    def test_deterministic_correct(self):
        rc = coin_classifier({})
        assert worst_error(rc, 0.0, 1, [0.0, 1.0]) == 0.0

    def test_fair_coin_exact(self):
        rc = coin_classifier({1.0: 0.5})
        assert worst_error(rc, 0.0, 1, [0.0, 1.0]) == pytest.approx(0.5)

    def test_max_of_two_levels(self):
        rc = coin_classifier({0.0: 0.2, 1.0: 0.3})
        assert worst_error(rc, 0.0, 1, [0.0, 1.0]) == pytest.approx(0.3)

    def test_mc_mode_close_to_exact(self):
        # one shared batch of randomness draws, scored at every attack point
        rc = coin_classifier({0.0: 0.2, 1.0: 0.3}, grid=1000)
        draws = sample(rc.randomness, 20000, rng_for(11))
        est = max(sum(rc.evaluate(xp, r) != 1 for r in draws) / len(draws) for xp in (0.0, 1.0))
        assert abs(est - worst_error(rc, 0.0, 1, [0.0, 1.0])) < 0.02

    def test_rejects_empty_attack_set(self):
        with pytest.raises(ValueError):
            worst_error(coin_classifier({}), 0.0, 1, [])
