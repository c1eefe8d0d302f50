import math

import numpy as np
import pytest
from scipy.stats import binom

from drloss.derand import (
    AttackTask,
    RandomizedCertifier,
    RandomizedClassifier,
    decode_seeds,
    derandomize_certifier,
    derandomize_classifier,
    encode_seeds,
    epsilon_eta,
    evaluate_cert_band,
    evaluate_derand_dr,
    exact_point_error,
    lower_median,
    plurality,
    required_trials,
    worst_point_errors,
)
from drloss.hypo import Threshold
from drloss.perturb import FiniteDistribution
from drloss.tasks import derand_classifier_setup, grid_randomness
from drloss.xprun.suites import smoothed_threshold_error


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestRequiredTrials:
    def test_vote_count_formula_values(self):
        assert required_trials(0.1, 10, 0.05) == 52984
        assert required_trials(0.25, 1, 0.5) == 1110

    def test_clamps_to_one(self):
        assert required_trials(0.25, 1, 0.999999) == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            required_trials(0.5, 1, 0.1)
        with pytest.raises(ValueError):
            required_trials(0.1, 1, 1.0)
        with pytest.raises(ValueError):
            required_trials(0.1, 0, 0.1)


class TestVoting:
    def test_plurality_majority(self):
        assert plurality([1, 1, -1]) == 1

    def test_plurality_tie_smallest_label(self):
        assert plurality([1, -1]) == -1
        assert plurality([3, 1, 3, 1]) == 1

    def test_lower_median(self):
        assert lower_median([1.0, 3.0, 2.0]) == 2.0
        assert lower_median([4.0, 1.0, 3.0, 2.0]) == 2.0

    def test_randomness_ignoring_base_unchanged(self):
        base = RandomizedClassifier(evaluate=lambda x, r: 1 if x >= 0 else -1,
                                    randomness=grid_randomness(10))
        for t in (1, 2, 7):
            det = derandomize_classifier(base, t, rng_for(t))
            for x in (-2.0, -0.5, 0.0, 3.0):
                assert det.predict(x) == base.evaluate(x, 0.0)

    def test_derandomized_is_deterministic(self):
        setup = derand_classifier_setup(p_err=0.3, a_size=4, grid=100)
        det = derandomize_classifier(setup.base, 11, rng_for(5))
        xp = setup.attack_task.attacks[0.0][0]
        assert det.predict(xp) == det.predict(xp)


def coin_base(p_wrong, grid=1000):
    return RandomizedClassifier(
        evaluate=lambda x, r: -1 if r < p_wrong else 1,
        randomness=grid_randomness(grid),
    )


class TestChernoffAmplification:
    def test_low_error_base_rarely_fooled_after_derandomization(self):
        # per-draw error 0.2, t=101: exact tail ~4e-11, so 300 runs see none
        base = coin_base(0.2)
        wrong = 0
        for i in range(300):
            det = derandomize_classifier(base, 101, rng_for(i))
            if det.predict(0.0) != 1:
                wrong += 1
        assert wrong / 300 < 0.01
        exact_tail = float(binom.sf(50, 101, 0.2))
        assert exact_tail <= math.exp(-2 * 0.3**2 * 101)

    def test_exact_binomial_tail_below_chernoff(self):
        # error probability of the vote at one point, ties included, vs exp(-2 eta^2 t)
        for p in (0.1, 0.25, 0.4):
            eta = 0.5 - p
            for t in (1, 2, 3, 5, 10, 25, 60):
                need = t // 2 + 1  # strict majority of wrong votes
                p_err = float(binom.sf(need - 1, t, p))
                if t % 2 == 0:  # tie can also fool when the true label is +1
                    p_err += float(binom.pmf(t // 2, t, p))
                assert p_err <= math.exp(-2 * eta * eta * t) + 1e-12

    def test_union_bound_over_attack_set(self):
        setup = derand_classifier_setup(p_err=0.3, a_size=8, grid=1000)
        t = 41
        fooled = 0
        runs = 400
        for i in range(runs):
            det = derandomize_classifier(setup.base, t, rng_for(i))
            if evaluate_derand_dr(det, setup.attack_task) > 0.0:
                fooled += 1
        bound = 2 * 8 * math.exp(-2 * 0.2**2 * t)  # both atoms, |A|=8 each
        sigma = math.sqrt(bound * (1 - bound) / runs) if bound < 1 else 0.0
        assert fooled / runs <= min(1.0, bound) + 3 * sigma


class TestEpsilonEta:
    def test_exact_values_and_markov(self):
        setup = derand_classifier_setup(p_err=0.2, a_size=8, p_err_high=0.6)
        errors = worst_point_errors(setup.base, setup.attack_task)
        assert errors[(0.0, -1)] == pytest.approx(0.2)
        assert errors[(10.0, 1)] == pytest.approx(0.6)
        assert setup.mean_error == pytest.approx(0.4)
        eta = 0.25
        eps_eta = epsilon_eta(setup.attack_task, errors, eta)
        assert eps_eta == pytest.approx(0.5)  # only the 0.6 half reaches 1/2 - eta
        assert eps_eta <= 2 * setup.mean_error / (1 - 2 * eta)

    def test_markov_bound_on_random_tables(self):
        for seed in range(30):
            r = rng_for(seed)
            n = int(r.integers(1, 6))
            masses = r.dirichlet([1.0] * n)
            errs = r.uniform(0.0, 1.0, size=n)
            data = FiniteDistribution([(float(i), 1) for i in range(n)], list(masses))
            task = AttackTask(data, {float(i): (float(i),) for i in range(n)})
            table = {(float(i), 1): float(errs[i]) for i in range(n)}
            mean = float(masses @ errs)
            for eta in (0.05, 0.2, 0.4):
                assert epsilon_eta(task, table, eta) <= 2 * mean / (1 - 2 * eta) + 1e-12

    def test_boundary_uses_weak_inequality(self):
        data = FiniteDistribution([(0.0, 1)], [1.0])
        task = AttackTask(data, {0.0: (0.0,)})
        assert epsilon_eta(task, {(0.0, 1): 0.25}, 0.25) == 1.0  # 0.25 >= 1/2 - 1/4


class TestEvaluateDerandDr:
    def test_correct_everywhere_is_zero(self):
        base = RandomizedClassifier(evaluate=lambda x, r: 1, randomness=grid_randomness(10))
        data = FiniteDistribution([(0.0, 1), (1.0, 1)], [0.5, 0.5])
        task = AttackTask(data, {0.0: (0.0, 0.25), 1.0: (1.0,)})
        det = derandomize_classifier(base, 3, rng_for(0))
        assert evaluate_derand_dr(det, task) == 0.0

    def test_half_mass_fooled(self):
        base = RandomizedClassifier(evaluate=lambda x, r: 1, randomness=grid_randomness(10))
        data = FiniteDistribution([(0.0, 1), (1.0, -1)], [0.5, 0.5])
        task = AttackTask(data, {0.0: (0.0,), 1.0: (1.0,)})
        det = derandomize_classifier(base, 3, rng_for(0))
        assert evaluate_derand_dr(det, task) == pytest.approx(0.5)

    def test_single_vote_equals_the_fixed_draw(self):
        setup = derand_classifier_setup(p_err=0.3, a_size=4, grid=100)
        for i in range(20):
            det = derandomize_classifier(setup.base, 1, rng_for(i))
            seed = det.seeds[0]
            expected = 0.0
            for x, y, p in setup.attack_task.atoms():
                if any(setup.base.evaluate(xp, seed) != y
                       for xp in setup.attack_task.attacks[x]):
                    expected += p
            assert evaluate_derand_dr(det, setup.attack_task) == pytest.approx(expected)


def in_band_certifier(q_in, alpha=0.5, out_side="high", grid=1000):
    def region(x):
        return abs(x - 1.5)

    def evaluate(x, r):
        if r < 1.0 - q_in:
            return region(x) * (2.0 + alpha) if out_side == "high" else 0.0
        return region(x)

    return RandomizedCertifier(evaluate=evaluate, randomness=grid_randomness(grid),
                               robust_region=region)


class TestCertifier:
    def test_constant_certifier_median(self):
        cert = in_band_certifier(1.0)
        det = derandomize_certifier(cert, 5, rng_for(1))
        assert det.radius(0.0) == pytest.approx(1.5)

    def test_exact_radius_in_band(self):
        cert = in_band_certifier(1.0)
        det = derandomize_certifier(cert, 3, rng_for(2))
        data = FiniteDistribution([(0.0, -1)], [1.0])
        task = AttackTask(data, {0.0: (0.0, 0.5)})
        report = evaluate_cert_band(det, task, alpha=0.5, beta=0.5)
        assert report.violation_mass == 0.0
        assert report.zero_region_mass == 0.0

    def test_doubled_radius_always_out_of_band(self):
        def region(x):
            return abs(x - 1.5)

        cert = RandomizedCertifier(evaluate=lambda x, r: 2.0 * region(x),
                                   randomness=grid_randomness(10),
                                   robust_region=region)
        det = derandomize_certifier(cert, 3, rng_for(3))
        data = FiniteDistribution([(0.0, -1)], [1.0])
        task = AttackTask(data, {0.0: (0.0, 0.5)})
        assert evaluate_cert_band(det, task, alpha=0.5, beta=0.5).violation_mass == 1.0

    def test_zero_region_reporting(self):
        def region(x):
            return 0.0 if x == 1.5 else abs(x - 1.5)

        # radius 0 over a zero region: excluded, reported separately
        cert0 = RandomizedCertifier(evaluate=lambda x, r: 0.0,
                                    randomness=grid_randomness(10), robust_region=region)
        det0 = derandomize_certifier(cert0, 3, rng_for(4))
        data = FiniteDistribution([(1.5, 1)], [1.0])
        task = AttackTask(data, {1.5: (1.5,)})
        report = evaluate_cert_band(det0, task, alpha=0.5, beta=0.5)
        assert report.violation_mass == 0.0
        assert report.zero_region_mass == 1.0
        # positive radius over a zero region is flagged out of band
        cert1 = RandomizedCertifier(evaluate=lambda x, r: 0.1,
                                    randomness=grid_randomness(10), robust_region=region)
        det1 = derandomize_certifier(cert1, 3, rng_for(5))
        assert evaluate_cert_band(det1, task, alpha=0.5, beta=0.5).violation_mass == 1.0

    def test_median_dominates_per_draw_odd_t(self):
        # odd t: P(median in band) = P(Binom(t, q) >= (t+1)/2) >= q for q >= 1/2
        for q in (0.5, 0.6, 0.75, 0.9, 0.99):
            for t in (1, 3, 5, 11, 51):
                p_med = float(binom.sf((t + 1) // 2 - 1, t, q))
                assert p_med >= q - 1e-12

    def test_median_dominates_even_t_high_outliers(self):
        # even t with one-sided high outliers: lower median in band iff at
        # least t/2 in-band draws
        for q in (0.55, 0.8, 0.95):
            for t in (2, 4, 10, 40):
                p_med = float(binom.sf(t // 2 - 1, t, q))
                assert p_med >= q - 1e-12

    def test_even_t_low_outliers_counterexample(self):
        # the domination genuinely fails for the lower median with low-side
        # outliers at t=2: P = q^2 < q
        q = 0.9
        cert = in_band_certifier(q, out_side="low")
        in_band = 0
        runs = 2000
        for i in range(runs):
            det = derandomize_certifier(cert, 2, rng_for(i))
            r = det.radius(0.0)
            if abs(r / 1.5 - 1.0) <= 0.5:
                in_band += 1
        assert in_band / runs < q  # ~0.81

    def test_empirical_median_matches_binomial_oracle(self):
        q, t = 0.8, 9
        cert = in_band_certifier(q)
        hits = 0
        runs = 3000
        for i in range(runs):
            det = derandomize_certifier(cert, t, rng_for(i))
            if abs(det.radius(0.0) / 1.5 - 1.0) <= 0.5:
                hits += 1
        p_exact = float(binom.sf((t + 1) // 2 - 1, t, q))
        se = math.sqrt(p_exact * (1 - p_exact) / runs)
        assert abs(hits / runs - p_exact) <= 4 * se


def noisy_error(cut, x, y, sigma, trials, rng) -> float:
    """Share of ``trials`` Gaussian noise draws on which the threshold at ``cut``
    mislabels x + noise."""
    labels = np.where(x + rng.normal(0.0, sigma, trials) >= cut, 1, -1)
    return float(np.mean(labels != y))


class TestSmoothedClassifier:
    """A threshold under Gaussian input noise, as the smoothing suite scores it:
    ``smoothed_threshold_error`` is its exact error at a point."""

    def test_tiny_sigma_recovers_base(self):
        base = Threshold(1.0)
        for x in (-3.0, 0.0, 0.99, 1.01, 4.0):
            y = base.predict(x)
            assert smoothed_threshold_error(base.t, x, y, 1e-12) == 0.0
            assert smoothed_threshold_error(base.t, x, -y, 1e-12) == 1.0

    def test_balanced_point_splits_votes(self):
        assert smoothed_threshold_error(0.0, 0.0, 1, 1.0) == 0.5
        assert smoothed_threshold_error(0.0, 0.0, -1, 1.0) == 0.5
        assert 0.49 <= noisy_error(0.0, 0.0, 1, 1.0, 10**6, rng_for(8)) <= 0.51

    def test_far_point_votes_nearly_unanimous(self):
        assert smoothed_threshold_error(0.0, 6.0, 1, 1.0) < 1e-8
        assert noisy_error(0.0, 6.0, 1, 1.0, 10**4, rng_for(9)) <= 0.001

    def test_exact_point_error_on_grid(self):
        rc = coin_base(0.2, grid=1000)
        assert exact_point_error(rc, 0.0, 1) == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("sigma", [0.5, 2.0])
    @pytest.mark.parametrize("x", [0.0, 1.2, 3.0, 3.4])
    @pytest.mark.parametrize("y", [-1, 1])
    def test_matches_seeded_monte_carlo(self, y, x, sigma):
        trials = 20000
        exact = smoothed_threshold_error(1.5, x, y, sigma)
        estimate = noisy_error(1.5, x, y, sigma, trials, rng_for(17))
        assert abs(estimate - exact) <= 4 * math.sqrt(exact * (1 - exact) / trials)


class TestSeedEncoding:
    def test_scalar_round_trip(self):
        seeds = (0.125, -3.5, 1e-9)
        assert decode_seeds(encode_seeds(seeds)) == seeds

    def test_vector_round_trip(self):
        seeds = ((0.5, -1.25), (3.0, 4.0))
        assert decode_seeds(encode_seeds(seeds)) == seeds
