import copy
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drloss import perturb, seeding
from drloss.perturb import (
    DistributionError,
    DistributionFamily,
    FiniteDistribution,
    GaussianDistribution,
    build_representative_cover,
    categorical,
    gaussian_shift_tv,
    pointwise_cover_violation,
    sample,
    skip_words,
    tv_distance,
    two_point_counts,
    word_cuts,
    word_index,
    word_sum,
    word_tally,
)
from drloss.tasks import task_from_dict
from drloss.xprun.suites import _draws, _votes

from generators import rng_for


class FixedDoubles(np.random.Generator):
    """A generator whose ``random`` returns the doubles of fixed raw words.

    ``Generator.random`` turns a word x into (x >> 11) * 2**-53; ``choice``
    on this generator is numpy's draw from those doubles, the reference for
    feeding the same words to ``word_index``.
    """

    def __init__(self, words):
        super().__init__(np.random.Philox(0))
        self.u = (np.asarray(words, np.uint64) >> np.uint64(11)).astype(float) * 2.0 ** -53

    def random(self, size=None, dtype=np.float64, out=None):
        return self.u.reshape(size)


def words_on_the_cuts(cuts) -> np.ndarray:
    """Each cut (low bits 0) and the word under it (low bits 2047), with the extremes."""
    edges = [w for cut in map(int, cuts) for w in (cut - 1, cut) if w >= 0]
    return np.array(edges + [0, 2 ** 64 - 1], dtype=np.uint64)


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

    @pytest.mark.parametrize("probs", [[math.nan, 1.0], [0.5, math.inf], [-math.inf, 1.0],
                                       [math.nan, math.nan]],
                             ids=["nan", "inf", "minus-inf", "all-nan"])
    def test_rejects_non_finite(self, probs):
        # nan fails neither p < 0 nor the sum check, and would reach word_cuts
        with pytest.raises(DistributionError, match="non-finite"):
            FiniteDistribution([0.0, 1.0], probs)

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

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
    def test_rejects_non_finite_sigma(self, sigma):
        with pytest.raises(DistributionError, match="sigma"):
            GaussianDistribution(0.0, sigma)

    @pytest.mark.parametrize("center", [math.nan, math.inf, -math.inf, (0.0, math.nan),
                                        (math.inf, 1.0)],
                             ids=["nan", "inf", "minus-inf", "2-d-nan", "2-d-inf"])
    def test_rejects_non_finite_center(self, center):
        with pytest.raises(DistributionError, match="center"):
            GaussianDistribution(center, 1.0)

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
        gathered = np.asarray(d.support)[categorical(d.prob_array(), 500, rng_for(11))]
        assert np.array_equal(gathered, np.asarray(sample(d, 500, rng_for(11))))

    def test_gaussian_vector_draws(self):
        g = GaussianDistribution((1.0, -1.0), 0.5)
        draws = sample(g, 10, rng_for(3))
        assert all(isinstance(z, tuple) and len(z) == 2 for z in draws)

    @staticmethod
    def gaussian_oracle(dist, count, rng):
        """The per-scalar comprehension the batched Gaussian draw replaced."""
        if isinstance(dist.center, tuple):
            noise = rng.standard_normal((count, len(dist.center))) * dist.sigma
            c = np.asarray(dist.center)
            return [tuple(float(v) for v in c + row) for row in noise]
        noise = rng.standard_normal(count) * dist.sigma
        return [float(dist.center + e) for e in noise]

    @pytest.mark.parametrize("center", [0.0, -3.25, 1e300, (0.0,), (1.0, -1.0), (5e-324, 2.0, -7.5)],
                             ids=["zero", "scalar", "huge", "1-tuple", "2-d", "3-d"])
    def test_gaussian_batch_matches_per_scalar_oracle(self, center):
        # the same Python floats, bit for bit, and the same stream state after
        for seed in range(30):
            dist = GaussianDistribution(center, 0.5 + seed)
            for count in (1, 2, 100):
                got_rng, want_rng = rng_for(seed), rng_for(seed)
                got = sample(dist, count, got_rng)
                want = self.gaussian_oracle(dist, count, want_rng)
                assert type(got) is list and len(got) == count
                flat = [v for z in got for v in z] if isinstance(center, tuple) else got
                want_flat = [v for z in want for v in z] if isinstance(center, tuple) else want
                assert all(type(z) is type(w) for z, w in zip(got, want))
                assert all(type(v) is float for v in flat)
                assert [v.hex() for v in flat] == [v.hex() for v in want_flat]
                assert got_rng.random() == want_rng.random()


class TestVoteBounds:
    """The derand suites' vote counts against sorting the drawn points.

    ``suites._votes`` keeps, per distinct level, the ``word_tally`` of the
    support points below it; its ``word_sum`` over the raw words must equal
    ``np.searchsorted`` of the level in the sorted draws of ``categorical``
    from the same stream, and the draws formed from the words
    (``suites._draws``, the ``seeds_hex`` dump) must be those draws.
    """

    @staticmethod
    def below(votes, words, levels) -> list:
        return [word_sum(votes.tallies[votes.tally_of[level]], words) for level in levels]

    def assert_counts_draws_below(self, support, probs, levels, count, rng, ref_rng):
        d = FiniteDistribution(support, probs)
        votes = _votes(d, levels)
        draws = np.sort(np.asarray(d.support)[categorical(d.prob_array(), count, ref_rng)])
        words = rng.bit_generator.random_raw(count)
        below = self.below(votes, words, levels)
        assert len(votes.tallies) == len(set(levels))
        assert below == np.searchsorted(draws, levels, "left").tolist()
        assert all(type(n) is int for n in below)
        assert np.array_equal(_draws(votes, words), draws)
        assert rng.random() == ref_rng.random()  # the same number of uniforms taken

    @pytest.mark.parametrize("support,probs,levels,count", [
        ([4.0], [1.0], [3.0, 4.0, 5.0], 1),
        ([4.0], [1.0], [3.0, 4.0, 5.0], 300),
        ([-1.0, 0.5, 2.0, 3.0], [0.5, 0.0, 0.5, 0.0], [-2.0, -1.0, 0.5, 1.0, 2.0, 3.0, 10.0], 200),
        ([0.0, 1.0, 2.0], [0.0, 0.0, 1.0], [0.0, 0.5, 1.0, 2.0, 2.5], 50),
        ([0.0, 1.0, 2.0], [1.0, 0.0, 0.0], [0.0, 0.5, 1.0, 2.0, 2.5], 50),
        ([(i + 0.5) / 5 for i in range(5)], [0.2] * 5, [0.0, 0.3, 0.5, 0.9, 1.0], 1200),
        ([(i + 0.5) / 17 for i in range(17)], [1 / 17] * 17, [0.41, 0.45, 0.5, 1.0], 31),
        ([(i + 0.5) / 1000 for i in range(1000)], [0.001] * 1000,
         [0.0, 0.2, 0.2005, 0.6, 1.0], 8121),
        ([(i + 0.5) / 5 for i in range(5)], [0.2] * 5, [0.5, 0.3, 0.5, 0.3, 1.0], 100),
    ], ids=["k1-t1", "k1-many", "zeros-between", "zeros-first", "zeros-last", "grid5-counting",
            "grid17-renormalized", "derand-grid", "repeated-levels"])
    def test_counts_match_sorted_index_draw(self, support, probs, levels, count):
        for seed in range(5):
            self.assert_counts_draws_below(support, probs, levels, count,
                                           rng_for(seed), rng_for(seed))

    def test_bounds_of_zero_and_one(self):
        # a level under the support counts no draw and has no step; one over
        # it counts every draw, its one step at the cdf's end, which no word
        # reaches, dropped; one between steps down at the middle cut
        votes = _votes(FiniteDistribution([1.0, 2.0], [0.5, 0.5]), [0.0, 1.5, 3.0])
        assert votes.tallies == [(0, []), (1, [(-1, np.uint64(1 << 63))]), (1, [])]
        words = rng_for(3).bit_generator.random_raw(40)
        below = self.below(votes, words, [0.0, 1.5, 3.0])
        assert below[0] == 0 and below[2] == 40 and 0 < below[1] < 40

    @given(st.integers(0, 10**6))
    def test_counts_match_sorted_index_draw_on_random_distributions(self, seed):
        r = rng_for(seed)
        k = int(r.integers(1, 13))
        weights = r.integers(0, 4, size=k).astype(float)  # about a quarter are zero
        weights[r.integers(k)] += 1.0
        support = np.sort(r.choice(50, size=k, replace=False) - 25.0)
        # below the minimum, above the maximum, on every support point and between
        levels = np.concatenate([[support[0] - 1.0, support[-1] + 1.0], support,
                                 support[:-1] + np.diff(support) / 2])
        count = int(r.choice([1, 2, k, 1000 + k]))
        self.assert_counts_draws_below(support.tolist(), weights / weights.sum(), levels.tolist(),
                                       count, rng_for(seed), rng_for(seed))

    def test_uniform_on_a_cdf_step_lands_above_it(self):
        # choice sends a uniform equal to cdf[j] past index j; random words
        # almost never sit on a cut, so the words are fixed on and under each
        d = FiniteDistribution([0.0, 1.0, 2.0, 3.0], [0.25, 0.25, 0.0, 0.5])
        levels = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0]
        votes = _votes(d, levels)
        words = words_on_the_cuts(votes.draw_cuts)
        draws = np.sort(np.asarray(d.support)[FixedDoubles(words).choice(4, len(words), p=d.probs)])
        assert self.below(votes, words, levels) == np.searchsorted(draws, levels, "left").tolist()
        assert np.array_equal(_draws(votes, words), draws)


class TestWordCut:
    """Raw Philox words stand for ``Generator.random``'s doubles.

    The hoeffding outer tail and the derand votes count a stream's raw words
    against ``word_cuts`` cuts in place of its doubles against thresholds,
    and ``categorical`` indexes the words against them.
    """

    @pytest.mark.parametrize("shape", [1, 7, (3, 5), 16385, 0])
    def test_raw_words_are_the_random_doubles(self, shape):
        for path in [(1, 0, 0), (1, 2, 5), (7, 3, 0)]:
            rng, ref_rng = seeding.stream(*path), seeding.stream(*path)
            words = rng.bit_generator.random_raw(shape)
            assert words.dtype == np.uint64 and words.shape == np.empty(shape).shape
            u = (words >> np.uint64(11)) * 2.0 ** -53
            assert u.tobytes() == ref_rng.random(shape).tobytes()
            assert rng.random() == ref_rng.random()  # the same state afterwards

    @staticmethod
    def double(x: int) -> float:
        return float(np.uint64(x) >> np.uint64(11)) * 2.0 ** -53

    @pytest.mark.parametrize("c", [
        0.0, -0.0, 5e-324, 2.0 ** -60, 2.0 ** -53, 3 * 2.0 ** -54, 0.1, 0.5,
        0.5 + 2.0 ** -53, 1 - 2.0 ** -52, 1 - 2.0 ** -53, 1.0, 2.0,
    ])
    def test_word_cut_is_exact(self, c):
        # two categories whose cdf is [c, 1]; the cuts are of its first entry
        p = np.array([c, 1.0 - c])
        cdf = np.cumsum(p)
        assert cdf[0] / cdf[-1] == c
        cuts = word_cuts(p)
        assert cuts.dtype == np.uint64
        if len(cuts) == 0:
            assert c > 1 - 2.0 ** -53 and self.double(2 ** 64 - 1) < c
            return
        (cut,) = cuts
        assert int(cut) % 2 ** 11 == 0
        k0 = int(cut) >> 11
        # the words k * 2**11 - 1 and k * 2**11 on either side of the cut
        for k in range(max(0, k0 - 2), min(2 ** 53, k0 + 3) + 1):
            for x in (k * 2 ** 11 - 1, k * 2 ** 11):
                if 0 <= x < 2 ** 64:
                    assert (self.double(x) >= c) == (np.uint64(x) >= cut), (k, x)

    def test_word_cut_on_the_grid(self):
        def cuts(*p):
            return word_cuts(np.array(p)).tolist()
        assert cuts(0.0, 1.0) == [0]
        assert cuts(5e-324, 1.0) == [1 << 11]
        assert cuts(0.5, 0.5) == [1 << 63]
        assert cuts(0.5 + 2.0 ** -53, 0.5 - 2.0 ** -53) == [(1 << 63) + (1 << 11)]
        assert cuts(1 - 2.0 ** -53, 2.0 ** -53) == [2 ** 64 - 2 ** 11]
        assert cuts(1.0, 0.0) == []
        # one cut per cdf entry but the last, ascending, up to the first no word reaches
        assert cuts(0.0, 0.5, 2.0 ** -53, 0.5 - 2.0 ** -53) == [0, 1 << 63, (1 << 63) + (1 << 11)]
        assert cuts(0.25, 0.75, 0.0, 0.0) == [1 << 62]
        assert cuts(1.0) == []


class TestWordTally:
    """``word_sum(word_tally(p, values), words, axis)`` against indexing the values.

    The hoeffding outer tail (axis 1) and the derand votes (the whole array)
    sum a category value over raw words through the tally's steps; the
    reference indexes ``values`` at ``word_index(word_cuts(p), words)``.
    """

    @staticmethod
    def assert_sums_the_indexed_values(p, values, words):
        p, tally = np.asarray(p, dtype=float), word_tally(p, values)
        indexed = np.asarray(values, np.int64)[word_index(word_cuts(p), words)]
        for axis in [None] + ([1] if words.ndim == 2 else []):
            got = word_sum(tally, words, axis)
            if axis is None:
                assert type(got) is int and got == indexed.sum()
            else:
                assert got.dtype == np.int64 and got.shape == words.shape[:1]
                assert np.array_equal(got, indexed.sum(axis=1))

    @pytest.mark.parametrize("p,values,tally", [
        ([0.5, 0.5], [0, 1], (0, [(1, 1 << 63)])),
        ([0.25, 0.25, 0.5], [1, 0, 1], (1, [(-1, 1 << 62), (1, 1 << 63)])),
        ([0.25, 0.0, 0.75], [2, 5, 5], (2, [(3, 1 << 62)])),  # the step at zero mass
        ([0.5, 0.5], [True, False], (1, [(-1, 1 << 63)])),
        ([0.25, 0.75], [3, 3], (3, [])),
        ([1.0, 0.0], [0, 1], (0, [])),  # no word reaches the zero-mass last category
        ([0.25, 0.75, 0.0], [0, 1, 4], (0, [(1, 1 << 62)])),
        ([0.0, 1.0], [1, 0], (1, [(-1, 0)])),  # every word is past cut 0
        ([1.0], [7], (7, [])),
    ], ids=["half", "edges", "zero-mass", "bool", "constant", "step-unreached",
            "steps-unreached", "zero-first", "k1"])
    def test_tally_steps_and_sums(self, p, values, tally):
        assert word_tally(np.array(p), values) == tally
        words = words_on_the_cuts(word_cuts(np.array(p)))
        self.assert_sums_the_indexed_values(p, values, words)
        self.assert_sums_the_indexed_values(p, values, np.vstack([words, words[::-1]]))

    def test_a_step_free_tally_sums_each_row(self):
        words = rng_for(1).bit_generator.random_raw((5, 3))
        got = word_sum((2, []), words, axis=1)
        assert got.dtype == np.int64 and got.tolist() == [6] * 5
        assert word_sum((2, []), words) == 30 and word_sum((0, []), words[:0]) == 0

    @given(st.data())
    def test_sum_matches_indexed_values(self, data):
        k = data.draw(st.integers(1, 12))
        weights = np.array(data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)), float)
        weights[data.draw(st.integers(0, k - 1))] += 1.0  # about a quarter of the rest are zero
        p = weights / weights.sum()
        values = data.draw(st.one_of(
            st.lists(st.integers(-3, 3), min_size=k, max_size=k),
            st.integers(-3, 3).map(lambda v: [v] * k),
            st.lists(st.booleans(), min_size=k, max_size=k)))
        edges = words_on_the_cuts(word_cuts(p))
        rows = data.draw(st.integers(0, 4))
        random = rng_for(data.draw(st.integers(0, 10**6))).bit_generator.random_raw((rows, len(edges)))
        self.assert_sums_the_indexed_values(p, values, edges)
        self.assert_sums_the_indexed_values(p, values, np.vstack([edges, random]))


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
        ([1 / 1000] * 1000, 8121),
        ([0.4, 0.6], 0),
    ], ids=["k1", "k2-one-draw", "zero-first", "zero-inside", "zero-last", "two-d",
            "hoeffding-outer-chunk", "k300", "k1000-derand-check", "no-draws"])
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

    # large draws, flat and 2-d, on the counting side (sizes around
    # 16384 and 32768 words, which once split the draw into blocks)
    BLOCK_SIZES = [16383, 16384, 16385, 32771]
    BLOCK_P = {2: [0.3, 0.7], 3: [0.2, 0.0, 0.8], 8: [0.05, 0.1, 0.2, 0.0, 0.15, 0.1, 0.3, 0.1]}

    @pytest.mark.parametrize("k", list(BLOCK_P))
    @pytest.mark.parametrize("shape", ["flat", "column", "row"])
    @pytest.mark.parametrize("total", BLOCK_SIZES)
    def test_categorical_blocks_match_choice(self, total, shape, k):
        assert k <= perturb.COUNT_MAX_K  # counting side
        size = {"flat": total, "column": (total, 1), "row": (1, total)}[shape]
        for seed in range(2):
            self.assert_matches_choice(self.BLOCK_P[k], size, seed)

    @pytest.mark.parametrize("count", [False, True], ids=["search", "count"])
    @pytest.mark.parametrize("size", [7, 16385, (3, 16384)])
    def test_categorical_fills_out(self, monkeypatch, count, size):
        self.force(monkeypatch, count)
        p = [0.25, 0.5, 0.25]
        ref_rng, rng = rng_for(5), rng_for(5)
        out = np.full(size, -1, dtype=np.intp)
        assert categorical(np.array(p), size, rng, out=out) is out
        assert np.array_equal(out, ref_rng.choice(3, size=size, p=p))
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("count", [False, True], ids=["search", "count"])
    def test_categorical_uniform_on_a_cdf_step_lands_above_it(self, monkeypatch, count):
        # choice sends a uniform equal to cdf[j] past index j; random words
        # almost never sit on a cut, so they are fixed on and under each cut
        self.force(monkeypatch, count)
        for p in ([0.25, 0.25, 0.0, 0.5], [0.0, 0.5, 0.5], [1 / 3] * 3, [0.1] * 10,
                  [1 - 2.0 ** -53, 2.0 ** -53], [0.5, 0.5 - 2.0 ** -54, 2.0 ** -54], [1.0]):
            p = np.array(p)
            words = words_on_the_cuts(word_cuts(p))
            want = FixedDoubles(words).choice(len(p), size=len(words), p=p)
            assert np.array_equal(word_index(word_cuts(p), words), want)
            stub = SimpleNamespace(bit_generator=SimpleNamespace(random_raw=words.reshape))
            assert np.array_equal(categorical(p, (len(words), 1), stub), want[:, None])


class TestBinomial:
    """numpy's ``Generator.binomial`` on a 0/1 table is the closed form hoeffding reads.

    Where every member mistake rate is exactly 0 or 1, the hoeffding suite's
    outer chunk counts a trial's slots at bad atoms in place of drawing
    ``rng.binomial(m, p_members[:, j][slots]) / m``.  These tests hold numpy
    to that: its draws divided by n are p, bit for bit.
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


def numpy_inversion(u: float, n: int, p: float) -> int:
    """numpy's ``random_binomial_inversion(n, p)`` from the uniform u, in Python floats.

    Returns X, or its bound + 1 where numpy redraws.
    """
    q = 1.0 - p
    qn = math.exp(n * math.log(q))
    np_ = n * p
    bound = int(min(n, np_ + 10.0 * math.sqrt(np_ * q + 1)))
    x, px = 0, qn
    while u > px:
        x += 1
        if x > bound:
            return x
        u -= px
        px = ((n - x + 1) * p * px) / (x * q)
    return x


class FixedWords:
    """A bit generator stand-in serving fixed raw words; its state is the position."""

    def __init__(self, words):
        self.words, self.state = np.array(words, np.uint64), 0

    def random_raw(self, size, output=True):
        self.state += size
        return self.words[self.state - size:self.state] if output else None


class TestSkipWords:
    """``skip_words`` leaves the state that reading the words with ``random_raw`` leaves."""

    @staticmethod
    def skipped_and_read(bitgen, count):
        """The states after ``skip_words`` and after ``random_raw`` from ``bitgen``'s, as reprs."""
        ref = copy.deepcopy(bitgen)
        skip_words(bitgen, count)
        ref.random_raw(count, output=False)
        return repr(bitgen.state), repr(ref.state)

    @staticmethod
    def philox(seed, buffer_pos, counter=None):
        """A Philox past one block, its buffer position set and its counter optionally set."""
        bitgen = np.random.Philox(seed)
        bitgen.random_raw(4)
        state = bitgen.state
        state["buffer_pos"] = buffer_pos
        if counter is not None:
            state["state"]["counter"][...] = counter
        bitgen.state = state
        return bitgen

    @pytest.mark.parametrize("buffer_pos", range(5))
    def test_philox_matches_random_raw(self, buffer_pos):
        for count in range(201):
            got, want = self.skipped_and_read(self.philox(count, buffer_pos), count)
            assert got == want, count

    @pytest.mark.parametrize("buffer_pos", [0, 4])
    def test_counter_carries_through_every_word(self, buffer_pos):
        top = 2 ** 64 - 1
        for counter in ([top - 2, top, top, 5], [top - 40, 0, 0, 0], [top] * 4):
            for count in (5, 9, 13, 64, 200):
                bitgen = self.philox(count, buffer_pos, counter)
                got, want = self.skipped_and_read(bitgen, count)
                assert got == want, (counter, count)
        # the last skip carried through all four words: from 2**256 - 1, the
        # ceil((196 + buffer_pos) / 4) fresh blocks of 200 words wrap it to one less
        assert bitgen.state["state"]["counter"].tolist() == [(195 + buffer_pos) // 4, 0, 0, 0]

    @pytest.mark.parametrize("count", [0, 1, 7, 8, 9, 150])
    def test_keeps_a_32_bit_draws_half_word(self, count):
        bitgen = np.random.Philox(3)
        np.random.Generator(bitgen).integers(0, 1000, dtype=np.int32)
        assert bitgen.state["has_uint32"] == 1
        got, want = self.skipped_and_read(bitgen, count)
        assert got == want
        assert bitgen.state["has_uint32"] == 1

    def test_other_bit_generators_read_the_words(self):
        got, want = self.skipped_and_read(np.random.PCG64(5), 37)
        assert got == want
        fixed = FixedWords(range(50))
        skip_words(fixed, 37)
        assert fixed.state == 37


class TestTwoPointCounts:
    """``two_point_counts`` against ``Generator.multinomial``: counts and the next raw word."""

    @staticmethod
    def check(m, p, size, skip, seed):
        """Assert the draw is numpy's, or ``None`` with the stream untouched; True on a draw."""
        p = np.array(p, dtype=float)
        rng = rng_for(seed)
        rng.bit_generator.random_raw(skip)  # start at each of Philox's buffer offsets
        ref = copy.deepcopy(rng)
        got = two_point_counts(m, p, size, rng)
        if got is None:
            assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
            return False
        want = ref.multinomial(m, p, size=size)
        assert np.array_equal(got, want[:, np.flatnonzero(p)[0]])
        assert rng.bit_generator.random_raw() == ref.bit_generator.random_raw()
        return True

    @pytest.mark.parametrize("p", [
        [0.3, 0.7], [0.7, 0.3], [0.5, 0.5], [0.0, 0.55, 0.45], [0.45, 0.0, 0.55],
        [0.8, 0.2, 0.0], [0.0, 0.25, 0.0, 0.75, 0.0], [0.7, 0.0, 0.3, 0.0],
        [1 / 3, 2 / 3, 0.0],
    ], ids=["low-high", "high-low", "fair", "zero-before", "zero-between", "zero-after",
            "zeros-around", "second-cut-reachable", "thirds"])
    @pytest.mark.parametrize("m", [1, 2, 3, 10, 50, 60])
    def test_matches_multinomial(self, m, p):
        # the last two vectors have p_b / (1 - p_a) just below 1, so a
        # second word could take a count past b: its first cut is reachable
        for size in (1, 2, 3, 20000):
            for skip in range(4):
                assert self.check(m, p, size, skip, seed=m * size + skip)

    @pytest.mark.parametrize("p", [[0.5, 0.5], [0.5, 0.5, 0.0], [0.0, 0.5, 0.5]])
    def test_past_inversion_draws_nothing(self, p):
        # 61 * 1/2 > 30: numpy takes its BTPE binomial
        for size in (1, 20000):
            assert not self.check(61, p, size, 1, seed=size)

    def test_count_past_b_falls_back(self):
        # a vector short of 1 leaves mass past b, where numpy's second
        # binomial often stops short of dn: such a call draws nothing
        drawn = [self.check(m, [0.2, 0.6, 0.0], size, skip, seed)
                 for m in (1, 3) for size in (1, 2) for skip in range(2) for seed in range(8)]
        assert any(drawn) and not all(drawn)

    @pytest.mark.parametrize("p", [[0.7, 0.0, 0.3, 0.0], [1 / 3, 2 / 3, 0.0]])
    def test_count_past_b_on_the_largest_word(self, p):
        # p_b / (1 - p_a) is just below 1, so numpy's second binomial, on the
        # largest double, can stop short of dn: that batch falls back
        p, m, fell_back = np.array(p), 3, []
        a, b = np.flatnonzero(p)
        flip = p[a] > 0.5
        pp, qb = (1.0 - p[a] if flip else p[a]), 1.0 - p[b] / (1.0 - p[a])
        for first in [0, *perturb._inversion_cuts(m, pp)[0]]:
            x = numpy_inversion(TestWordCut.double(first), m, pp)
            dn = x if flip else m - x
            past_b = dn > 0 and numpy_inversion(TestWordCut.double(2 ** 64 - 1), dn, qb) > 0
            rng = SimpleNamespace(bit_generator=FixedWords([first, 2 ** 64 - 1, 0, 0]))
            got = two_point_counts(m, p, 1, rng)
            assert rng.bit_generator.state == (0 if past_b else 1 + (dn > 0))
            assert got is None if past_b else got[0] == m - dn
            fell_back.append(past_b)
        assert any(fell_back) and not all(fell_back)

    def test_redraw_falls_back(self):
        # binomial(1000, 0.001) redraws past its bound of 15, from the last cut
        p = np.array([0.001, 0.999])
        cuts, bound = perturb._inversion_cuts(1000, 0.001)
        rng = SimpleNamespace(bit_generator=FixedWords([cuts[-1] - 2048, cuts[-1]]))
        assert two_point_counts(1000, p, 2, rng) is None and rng.bit_generator.state == 0
        assert two_point_counts(1000, p, 1, rng)[0] == bound == 15
        assert rng.bit_generator.state == 1

    def test_second_binomial_past_inversion_draws_nothing(self):
        # short of 1, p_b / (1 - p_a) = 0.6 / 0.99 leaves 0.39 * 100 > 30 for
        # numpy's BTPE, whatever the words
        rng = SimpleNamespace(bit_generator=FixedWords([0] * 4))
        assert two_point_counts(100, np.array([0.01, 0.6, 0.0]), 1, rng) is None
        assert rng.bit_generator.state == 0

    @settings(derandomize=True, max_examples=300)
    @given(st.integers(0, 10**6))
    def test_matches_multinomial_on_random_vectors(self, seed):
        r = rng_for(seed)
        d = int(r.integers(2, 7))
        a, b = np.sort(r.choice(d, size=2, replace=False))
        p = np.zeros(d)
        p[a] = r.choice([r.random(), r.integers(1, 20) / 20])
        p[b] = 1.0 - p[a]
        m = int(r.choice([1, 2, 3, 5, 10, 30, 50, 60, 61, 100]))
        size = int(r.choice([1, 2, 3, 17, 500]))
        if p[a] > 0:
            self.check(m, p, size, int(r.integers(0, 4)), seed)

    @pytest.mark.parametrize("n,p", [
        (1, 0.5), (2, 0.3), (3, 0.45), (10, 0.5), (50, 0.45), (60, 0.5), (60, 0.01),
        (30, 2.0 ** -40), (1000, 0.001), (1000, 0.03),
    ])
    def test_cuts_are_the_inversion_loops(self, n, p):
        # X >= k at each cut's double and X < k one double below; past the
        # last cut the largest double stays under it.  The last of n = 1000's
        # cuts is where numpy redraws (X past its bound)
        cuts, bound = perturb._inversion_cuts(n, p)

        def x_of(word):
            return numpy_inversion(TestWordCut.double(word), n, p)

        for k, cut in enumerate(cuts, 1):
            assert x_of(cut) >= k and x_of(cut - 2048) < k
        assert x_of(2 ** 64 - 1) == len(cuts)
        assert len(cuts) == bound + 1 if (n, p) == (1000, 0.001) else len(cuts) <= bound + 1


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

    def test_rejects_gaussian(self):
        finite = FiniteDistribution.point_mass(0.0)
        gauss = GaussianDistribution(0.0, 1.0)
        for a, b in ((gauss, finite), (finite, gauss)):
            with pytest.raises(DistributionError):
                tv_distance(a, b)

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
