import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drloss import perturb
from drloss.perturb import (
    DistributionError,
    DistributionFamily,
    FiniteDistribution,
    GaussianDistribution,
    SortedSampler,
    build_representative_cover,
    categorical,
    gaussian_shift_tv,
    pointwise_cover_violation,
    sample,
    sample_indices,
    tv_distance,
)
from drloss.tasks import task_from_dict


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestFiniteDistribution:
    def test_renormalizes_within_tolerance(self):
        d = FiniteDistribution([0.0, 1.0], [0.5 + 4e-10, 0.5])
        assert abs(math.fsum(d.probs) - 1.0) <= 1e-12

    def test_rejects_bad_sum(self):
        with pytest.raises(DistributionError):
            FiniteDistribution([0.0, 1.0], [0.6, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(DistributionError):
            FiniteDistribution([0.0, 1.0], [1.2, -0.2])

    def test_rejects_duplicate_support(self):
        with pytest.raises(DistributionError):
            FiniteDistribution([1.0, 1.0], [0.5, 0.5])

    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            FiniteDistribution([], [])

    def test_pairs_round_trip(self):
        # a task config writes a distribution as [point, prob] pairs, a point as a list
        spec = {"atoms": [[[0.0, 1.0], -1, 1.0]],
                "distributions": {"d": [[[0.0, 1.0], 0.25], [[2.0, 3.0], 0.75]]},
                "families": [{"x": [0.0, 1.0], "true": ["d"], "k": 1}]}
        (back,) = task_from_dict(spec).members_for((0.0, 1.0), "true")
        assert back.support == ((0.0, 1.0), (2.0, 3.0))
        assert back.probs == (0.25, 0.75)


class TestGaussian:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(DistributionError):
            GaussianDistribution(0.0, 0.0)

    def test_dim(self):
        # the center keeps its dimension, as floats
        scalar = GaussianDistribution(1, 1.0).center
        vector = GaussianDistribution((0, 1, 2), 1.0).center
        assert type(scalar) is float and scalar == 1.0
        assert vector == (0.0, 1.0, 2.0) and all(type(c) is float for c in vector)


class TestSample:
    def test_point_mass_degenerate(self):
        d = FiniteDistribution.point_mass(7.0)
        assert sample(d, 5, rng_for(0)) == [7.0] * 5

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            sample(FiniteDistribution.point_mass(0.0), 0, rng_for(0))

    def test_uniform_law_of_large_numbers(self):
        # seed-pinned: binomial sd at 1e6 draws is 5e-4, window is +-1e-3
        d = FiniteDistribution.uniform([0.0, 1.0])
        draws = sample(d, 10**6, rng_for(1234))
        freq = sum(draws) / len(draws)
        assert 0.499 <= freq <= 0.501

    def test_gaussian_mean_four_sigma_window(self):
        draws = sample(GaussianDistribution(0.0, 1.0), 10**6, rng_for(99))
        mean = sum(draws) / len(draws)
        assert -0.004 <= mean <= 0.004

    def test_deterministic_given_seed(self):
        d = FiniteDistribution.uniform([0.0, 1.0, 2.0])
        assert sample(d, 50, rng_for(7)) == sample(d, 50, rng_for(7))

    @pytest.mark.parametrize("support,probs", [
        ([0.5, 1.5, 2.5, 3.5], [0.1, 0.2, 0.3, 0.4]),
        ([(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)], [0.5, 0.25, 0.25]),
    ], ids=["scalar", "tuple"])
    def test_index_draw_gathers_what_sample_returns(self, support, probs):
        d = FiniteDistribution(support, probs)
        gathered = np.asarray(d.support)[sample_indices(d, 500, rng_for(11))]
        assert np.array_equal(gathered, np.asarray(sample(d, 500, rng_for(11))))

    def test_gaussian_vector_draws(self):
        g = GaussianDistribution((1.0, -1.0), 0.5)
        draws = sample(g, 10, rng_for(3))
        assert all(isinstance(z, tuple) and len(z) == 2 for z in draws)


class TestSortedSampler:
    def assert_matches_sorted_index_draw(self, support, probs, count, seed):
        d = FiniteDistribution(support, probs)
        ref_rng, rng = rng_for(seed), rng_for(seed)
        expected = np.sort(np.asarray(d.support)[sample_indices(d, count, ref_rng)])
        assert np.array_equal(SortedSampler(d).draw(count, rng), expected)
        assert rng.random() == ref_rng.random()  # the same number of uniforms taken

    @pytest.mark.parametrize("support,probs,count", [
        ([4.0], [1.0], 1),
        ([4.0], [1.0], 300),
        ([3.0, -1.0, 2.0], [0.2, 0.5, 0.3], 1),
        ([3.0, -1.0, 2.0, 0.5], [0.0, 0.5, 0.0, 0.5], 200),
        ([0.0, 1.0, 2.0], [0.0, 0.0, 1.0], 50),
        ([2.0, 1.0, 0.0], [1.0, 0.0, 0.0], 50),
        ([(i + 0.5) / 1000 for i in range(1000)], [0.001] * 1000, 8121),
    ], ids=["k1-t1", "k1-many", "unsorted-t1", "unsorted-zeros", "zeros-first",
            "zeros-last", "derand-grid"])
    def test_matches_sorted_index_draw(self, support, probs, count):
        for seed in range(5):
            self.assert_matches_sorted_index_draw(support, probs, count, seed)

    @given(st.integers(0, 10**6))
    def test_matches_sorted_index_draw_on_random_distributions(self, seed):
        r = rng_for(seed)
        k = int(r.integers(1, 13))
        weights = r.integers(0, 4, size=k).astype(float)  # about a quarter are zero
        weights[r.integers(k)] += 1.0
        support = (r.permutation(k) - k / 2).tolist()
        count = int(r.choice([1, 2, k, 100 * k + 1]))
        self.assert_matches_sorted_index_draw(support, weights / weights.sum(), count, seed)

    def test_uniform_on_a_cdf_step_lands_above_it(self):
        # choice sends a uniform equal to cdf[j] past index j; random doubles
        # almost never hit a step, so these uniforms are fixed
        class Fixed(np.random.Generator):
            def __init__(self):
                super().__init__(np.random.Philox(0))

            def random(self, size=None, dtype=np.float64, out=None):
                return np.array([0.5, 0.25, 0.0, 0.75, 0.5, 0.875])[:size]

        d = FiniteDistribution([3.0, 1.0, 2.0, 0.0], [0.25, 0.25, 0.0, 0.5])
        expected = np.sort(np.asarray(d.support)[sample_indices(d, 6, Fixed())])
        assert np.array_equal(SortedSampler(d).draw(6, Fixed()), expected)

    def test_rejects_tuple_support(self):
        with pytest.raises(DistributionError):
            SortedSampler(FiniteDistribution([(0.0, 1.0), (2.0, 3.0)], [0.5, 0.5]))


class TestCategorical:
    """``categorical`` against the numpy draw it reproduces, ``rng.choice(K, size, p=p)``."""

    @staticmethod
    def assert_matches_choice(p, size, seed):
        ref_rng, rng = rng_for(seed), rng_for(seed)
        expected = ref_rng.choice(len(p), size=size, p=p)
        got = categorical(np.asarray(p, dtype=float), size, rng)
        assert got.dtype == np.intp
        assert got.shape == expected.shape and np.array_equal(got, expected)
        assert rng.random() == ref_rng.random()  # the same number of uniforms taken

    @staticmethod
    def force(mp, count):
        """Send every draw to the counting branch, or every draw to the search."""
        mp.setattr(perturb, "COUNT_MAX_K", 10**6 if count else 0)
        mp.setattr(perturb, "COUNT_MIN_DRAWS", 0)

    @pytest.mark.parametrize("count", [False, True], ids=["search", "count"])
    @pytest.mark.parametrize("p,size", [
        ([1.0], 50),
        ([0.5, 0.5], 1),
        ([0.0, 0.5, 0.5], 300),
        ([0.3, 0.0, 0.7], 300),
        ([0.25, 0.75, 0.0], 300),
        ([0.1, 0.2, 0.3, 0.4], (7, 9)),
        ([0.5, 0.5], (256, 200)),
        ([1 / 300] * 300, 2000),
        ([0.4, 0.6], 0),
    ], ids=["k1", "k2-one-draw", "zero-first", "zero-inside", "zero-last", "two-d",
            "hoeffding-outer-chunk", "k300", "no-draws"])
    def test_categorical_matches_choice(self, monkeypatch, count, p, size):
        self.force(monkeypatch, count)
        for seed in range(3):
            self.assert_matches_choice(p, size, seed)

    @given(st.integers(0, 10**6), st.booleans())
    def test_categorical_matches_choice_on_random_distributions(self, seed, count):
        r = rng_for(seed)
        k = int(r.integers(1, 41))
        weights = r.integers(0, 4, size=k).astype(float)  # about a quarter are zero
        weights[r.integers(k)] += 1.0
        size = int(r.integers(1, 500)) if r.random() < 0.5 else tuple(r.integers(1, 30, size=2))
        with pytest.MonkeyPatch.context() as mp:
            self.force(mp, count)
            self.assert_matches_choice(weights / weights.sum(), size, seed)

    @pytest.mark.parametrize("count", [False, True], ids=["search", "count"])
    def test_categorical_uniform_on_a_cdf_step_lands_above_it(self, monkeypatch, count):
        self.force(monkeypatch, count)

        class Fixed(np.random.Generator):
            def __init__(self):
                super().__init__(np.random.Philox(0))

            def random(self, size=None, dtype=np.float64, out=None):
                return np.array([0.5, 0.25, 0.0, 0.75, 0.5, 0.875])[:size]

        p = [0.25, 0.25, 0.0, 0.5]
        assert np.array_equal(categorical(np.array(p), 6, Fixed()),
                              Fixed().choice(4, size=6, p=p))


class TestBinomial:
    """numpy's ``Generator.binomial`` on a 0/1 table is the closed form hoeffding reads.

    Where every member mistake rate is exactly 0 or 1, the hoeffding suite's
    outer chunk takes a slot's worst loss as ``p_members.max(axis=1)[slots]``
    in place of ``rng.binomial(m, p_members[:, j][slots]) / m``.  These tests
    hold numpy to that: its draws divided by n are p, bit for bit.
    """

    @staticmethod
    def assert_matches_numpy(n, p, codes, seed):
        p, codes = np.asarray(p, dtype=float), np.asarray(codes)
        draws = rng_for(seed).binomial(n, p[codes])
        assert draws.dtype == np.int64 and draws.shape == codes.shape
        assert (draws / n).tobytes() == p[codes].tobytes()

    @pytest.mark.parametrize("n,p,shape", [
        (1, [0.0, 1.0], (256, 200)),
        (5, [1.0, 0.0, 1.0], 300),
        (200, [0.0, 1.0], (9, 11)),
        (1, [1.0], 1),
        (3, [0.0, 1.0], 0),
    ], ids=["hoeffding-outer-chunk", "zero-one", "zero-one-large-n", "one-draw", "no-draws"])
    def test_binomial_matches_numpy(self, n, p, shape):
        for seed in range(3):
            codes = rng_for(100 + seed).integers(0, len(p), size=shape)
            self.assert_matches_numpy(n, p, codes, seed)

    @given(st.integers(0, 10**6))
    def test_binomial_matches_numpy_on_random_tables(self, seed):
        r = rng_for(seed)
        k = int(r.integers(1, 9))
        p = r.choice([0.0, 1.0], size=k)
        n = int(r.choice([1, 2, 5, 20, 60, 100, 1000]))
        shape = int(r.integers(0, 300)) if r.random() < 0.5 else tuple(r.integers(1, 30, size=2))
        self.assert_matches_numpy(n, p, r.integers(0, k, size=shape), seed)


class TestTvDistance:
    def test_identical_is_zero(self):
        d = FiniteDistribution([0.0, 1.0], [0.3, 0.7])
        assert tv_distance(d, d) == 0.0

    def test_hand_computed_half(self):
        a = FiniteDistribution([0.0, 1.0], [0.5, 0.5])
        b = FiniteDistribution([1.0, 2.0], [0.5, 0.5])
        assert tv_distance(a, b) == pytest.approx(0.5, abs=1e-12)

    def test_disjoint_supports_is_one(self):
        a = FiniteDistribution.point_mass(0.0)
        b = FiniteDistribution.point_mass(5.0)
        assert tv_distance(a, b) == 1.0

    @given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6))
    def test_metric_properties(self, sa, sb, sc):
        def rand_dist(seed):
            r = rng_for(seed)
            w = r.dirichlet([1.0] * 4)
            return FiniteDistribution([0.0, 1.0, 2.0, 3.0], list(w))

        a, b, c = rand_dist(sa), rand_dist(sb), rand_dist(sc)
        dab, dba = tv_distance(a, b), tv_distance(b, a)
        assert dab >= 0.0
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab <= tv_distance(a, c) + tv_distance(c, b) + 1e-12


def mc_tv_oracle(delta, sigma, n=10**6, seed=2024):
    """Density-ratio Monte Carlo for TV(N(0, s^2), N(delta, s^2)).

    TV = E_{z ~ N(0, s^2)} [ max(0, 1 - p1(z)/p0(z)) ], with the ratio in
    closed form; independent of the erf expression under test.
    """
    z = rng_for(seed).standard_normal(n) * sigma
    ratio = np.exp((2.0 * z * delta - delta**2) / (2.0 * sigma**2))
    return float(np.maximum(0.0, 1.0 - ratio).mean())


class TestGaussianShiftTv:
    def test_zero_delta(self):
        assert gaussian_shift_tv(0.0, 2.0) == 0.0

    def test_against_mc_oracle(self):
        # frozen closed-form values, re-validated by the MC oracle each run
        assert gaussian_shift_tv(2.0, 1.0) == pytest.approx(0.6826894921370859, abs=1e-12)
        assert gaussian_shift_tv(0.5, 1.0) == pytest.approx(0.19741265136584959, abs=1e-12)
        assert abs(gaussian_shift_tv(2.0, 1.0) - mc_tv_oracle(2.0, 1.0)) < 0.005
        assert abs(gaussian_shift_tv(0.5, 1.0) - mc_tv_oracle(0.5, 1.0)) < 0.005

    def test_monotone_and_limits(self):
        vals = [gaussian_shift_tv(d, 1.0) for d in np.linspace(0, 10, 50)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert gaussian_shift_tv(1e9, 1.0) == pytest.approx(1.0)

    @given(st.floats(0.0, 50.0), st.floats(0.01, 10.0), st.floats(0.01, 100.0))
    def test_scale_invariance(self, delta, sigma, c):
        assert gaussian_shift_tv(c * delta, c * sigma) == pytest.approx(
            gaussian_shift_tv(delta, sigma), abs=1e-9)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            gaussian_shift_tv(-1.0, 1.0)
        with pytest.raises(ValueError):
            gaussian_shift_tv(1.0, 0.0)


def exhaustive_cover_radius(family, k):
    """Best achievable radius over all k-subsets (independent of the greedy code)."""
    best = float("inf")
    for subset in itertools.combinations(range(len(family)), min(k, len(family))):
        radius = max(min(tv_distance(u, family[r]) for r in subset) for u in family)
        best = min(best, radius)
    return best


class TestRepresentativeCover:
    def test_single_distribution(self):
        d = FiniteDistribution.uniform([0.0, 1.0])
        cover = build_representative_cover([d], 1)
        assert cover.representatives == (d,)
        assert cover.radius == 0.0

    def test_two_identical(self):
        d = FiniteDistribution.uniform([0.0, 1.0])
        cover = build_representative_cover([d, FiniteDistribution.uniform([0.0, 1.0])], 1)
        assert cover.radius == 0.0

    def test_three_member_example(self):
        family = [
            FiniteDistribution([0.0, 1.0], [1.0, 0.0]),
            FiniteDistribution([0.0, 1.0], [0.0, 1.0]),
            FiniteDistribution([0.0, 1.0], [0.5, 0.5]),
        ]
        cover = build_representative_cover(family, 2)
        assert cover.radius == pytest.approx(0.5, abs=1e-12)
        assert cover.radius == pytest.approx(exhaustive_cover_radius(family, 2), abs=1e-12)

    @given(st.integers(0, 10**6), st.integers(1, 5))
    def test_greedy_within_twice_optimal(self, seed, k):
        r = rng_for(seed)
        family = [FiniteDistribution([0.0, 1.0, 2.0], list(r.dirichlet([1.0] * 3)))
                  for _ in range(int(r.integers(1, 7)))]
        cover = build_representative_cover(family, k)
        best = exhaustive_cover_radius(family, k)
        assert cover.radius <= 2.0 * best + 1e-12
        assert len(cover.representatives) <= k

    @given(st.integers(0, 10**6))
    def test_full_size_cover_has_zero_radius(self, seed):
        r = rng_for(seed)
        family = [FiniteDistribution([0.0, 1.0], list(r.dirichlet([1.0, 1.0])))
                  for _ in range(int(r.integers(1, 5)))]
        assert build_representative_cover(family, len(family)).radius == 0.0


class TestPointwiseCover:
    def test_self_cover(self):
        u = FiniteDistribution([0.0, 1.0], [0.4, 0.6])
        assert pointwise_cover_violation(u, [u]) is None

    def test_uncovered_mass(self):
        u = FiniteDistribution([0.0, 1.0], [0.5, 0.5])
        rep = FiniteDistribution([0.0, 1.0], [1.0, 0.0])
        z, pu, pr = pointwise_cover_violation(u, [rep])
        assert z == 1.0 and pu == 0.5 and pr == 0.0

    def test_two_rep_domination(self):
        u = FiniteDistribution([0.0, 1.0], [0.4, 0.6])
        reps = [FiniteDistribution([0.0, 1.0], [0.5, 0.5]),
                FiniteDistribution([0.0, 1.0], [0.3, 0.7])]
        assert pointwise_cover_violation(u, reps) is None


class TestDistributionFamily:
    def test_bounded_model_enforces_k(self):
        members = [FiniteDistribution.point_mass(float(i)) for i in range(3)]
        with pytest.raises(DistributionError):
            DistributionFamily(members, k=2)
        fam = DistributionFamily(members, k=3)
        assert fam.members("true") == tuple(members)
        with pytest.raises(DistributionError):
            fam.members("rep")

    def test_rep_cap(self):
        members = [FiniteDistribution.point_mass(float(i)) for i in range(4)]
        fam = DistributionFamily(members, members[:2], k=2)
        assert len(fam.members("rep")) == 2
        with pytest.raises(DistributionError):
            DistributionFamily(members, members[:3], k=2)
