import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drloss.hypo import (
    AxisRect,
    AxisRectClass,
    DomainError,
    FiniteClass,
    Interval,
    IntervalClass,
    TableHypothesis,
    Threshold,
    ThresholdClass,
    enumerate_behaviors,
    sauer_bound,
)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(seed))


class TestPredict:
    def test_threshold_above(self):
        assert Threshold(1.5).predict(3.0) == 1

    def test_threshold_at_cut_is_positive(self):
        assert Threshold(1.5).predict(1.5) == 1

    def test_interval_outside(self):
        assert Interval(0.0, 1.0).predict(2.0) == -1

    def test_table_lookup(self):
        h = TableHypothesis({0.0: -1, 1.0: -1, 2.0: -1, 3.0: -1})
        assert h.predict(0.0) == -1

    def test_table_domain_error(self):
        with pytest.raises(DomainError):
            TableHypothesis({0.0: -1}).predict(9.0)

    def test_rect_inside_and_dim_check(self):
        h = AxisRect((0.0, 0.0), (1.0, 1.0))
        assert h.predict((0.5, 1.0)) == 1
        assert h.predict((2.0, 0.5)) == -1
        with pytest.raises(DomainError):
            h.predict(0.5)

    def test_interval_requires_order(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_json_forms(self):
        assert Threshold(2.0).to_json() == {"classTag": "threshold-1d", "params": {"t": 2.0}}
        assert Interval(0.0, 1.0).to_json()["params"] == {"lo": 0.0, "hi": 1.0}


class TestThresholdEnumeration:
    def test_three_points_four_behaviors(self):
        behaviors = enumerate_behaviors(ThresholdClass(), [0.0, 1.0, 2.0])
        assert len(behaviors) == 4

    def test_ten_points_vs_sauer(self):
        pts = [float(i) for i in range(10)]
        behaviors = enumerate_behaviors(ThresholdClass(), pts)
        assert len(behaviors) == 11
        assert len(behaviors) <= sauer_bound(10, 1)  # e*10 ~ 27.2

    def test_witnesses_reproduce_labels(self):
        pts = [3.0, 0.0, 2.0, 1.0]  # unsorted on purpose
        for b in enumerate_behaviors(ThresholdClass(), pts):
            assert tuple(b.witness.predict(x) for x in pts) == b.labels

    def test_canonical_order_ascending_cut(self):
        behaviors = enumerate_behaviors(ThresholdClass(), [0.0, 1.0])
        assert [b.witness.t for b in behaviors] == [0.0, 1.0, 2.0]
        assert behaviors[0].labels == (1, 1)
        assert behaviors[-1].labels == (-1, -1)

    def test_tuple_points_raise_domain_error(self):
        with pytest.raises(DomainError):
            enumerate_behaviors(ThresholdClass(), [(0.0, 1.0), (2.0, 3.0)])


class TestIntervalEnumeration:
    def test_two_points_shattered(self):
        behaviors = enumerate_behaviors(IntervalClass(), [0.0, 1.0])
        assert len(behaviors) == 4
        assert {b.labels for b in behaviors} == {(-1, -1), (1, -1), (-1, 1), (1, 1)}

    def test_count_formula(self):
        pts = [float(i) for i in range(5)]
        behaviors = enumerate_behaviors(IntervalClass(), pts)
        assert len(behaviors) == 5 * 6 // 2 + 1

    def test_witnesses_reproduce_labels(self):
        pts = [2.0, 0.0, 1.0]
        for b in enumerate_behaviors(IntervalClass(), pts):
            assert tuple(b.witness.predict(x) for x in pts) == b.labels


def rect_realizable_labelings(points):
    """Oracle: a labeling is box-realizable iff the positives' bounding box
    contains no negative point (empty labeling is always realizable)."""
    dim = len(points[0])
    out = set()
    for labels in itertools.product((-1, 1), repeat=len(points)):
        pos = [p for p, lab in zip(points, labels) if lab == 1]
        if not pos:
            out.add(labels)
            continue
        lows = tuple(min(p[a] for p in pos) for a in range(dim))
        highs = tuple(max(p[a] for p in pos) for a in range(dim))
        box = AxisRect(lows, highs)
        if all(box.predict(p) == -1 for p, lab in zip(points, labels) if lab == -1):
            out.add(labels)
    return out


class TestRectEnumeration:
    @given(st.integers(0, 10**6), st.integers(2, 5))
    def test_matches_bbox_oracle(self, seed, n_pts):
        r = rng_for(seed)
        pts = [tuple(float(v) for v in r.integers(0, 4, size=2)) for _ in range(n_pts)]
        pts = list(dict.fromkeys(pts))
        behaviors = enumerate_behaviors(AxisRectClass(2), pts)
        assert {b.labels for b in behaviors} == rect_realizable_labelings(pts)

    def test_witnesses_reproduce_labels(self):
        pts = [(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)]
        for b in enumerate_behaviors(AxisRectClass(2), pts):
            assert tuple(b.witness.predict(x) for x in pts) == b.labels

    def test_vc_dim(self):
        assert AxisRectClass(3).vc_dim == 6


class TestFiniteClass:
    def test_distinct_rows_and_first_witness(self):
        h1 = TableHypothesis({0.0: 1, 1.0: 1})
        h2 = TableHypothesis({0.0: 1, 1.0: -1})
        h3 = TableHypothesis({0.0: 1, 1.0: 1})  # duplicate behavior of h1
        cls = FiniteClass([h1, h2, h3])
        behaviors = enumerate_behaviors(cls, [0.0, 1.0])
        assert len(behaviors) == 2
        assert behaviors[0].witness is h1

    def test_vc_dim_log_bound(self):
        hyps = [TableHypothesis({0.0: 1}), TableHypothesis({0.0: -1})]
        assert FiniteClass(hyps).vc_dim == 1
        assert FiniteClass(hyps * 8).vc_dim == 4  # 16 tables -> floor(log2 16)

    def test_rejects_unsupported_class(self):
        with pytest.raises(TypeError):
            enumerate_behaviors(object(), [0.0])


class TestSauerProperty:
    @given(st.integers(0, 10**6), st.integers(1, 12))
    def test_threshold_and_interval_growth(self, seed, n_pts):
        r = rng_for(seed)
        pts = sorted(set(float(v) for v in r.integers(0, 30, size=n_pts)))
        if not pts:
            return
        for cls in (ThresholdClass(), IntervalClass()):
            count = len(enumerate_behaviors(cls, pts))
            assert count <= sauer_bound(len(pts), cls.vc_dim) + 1e-9

    @given(st.integers(0, 10**6))
    def test_rect_growth(self, seed):
        r = rng_for(seed)
        pts = list(dict.fromkeys(
            tuple(float(v) for v in r.integers(0, 5, size=2)) for _ in range(6)))
        cls = AxisRectClass(2)
        count = len(enumerate_behaviors(cls, pts))
        assert count <= sauer_bound(len(pts), cls.vc_dim) + 1e-9

    def test_small_n_uses_exact_cap(self):
        assert sauer_bound(1, 2) == 2.0
        assert sauer_bound(10, 1) == pytest.approx(math.e * 10)


class TestPermutationInvariance:
    @given(st.integers(0, 10**6))
    def test_behavior_sets_match_under_permutation(self, seed):
        r = rng_for(seed)
        pts = sorted(set(float(v) for v in r.integers(0, 12, size=5)))
        if len(pts) < 2:
            return
        perm = list(r.permutation(len(pts)))
        shuffled = [pts[i] for i in perm]
        for cls in (ThresholdClass(), IntervalClass()):
            base = {b.labels for b in enumerate_behaviors(cls, pts)}
            moved = {tuple(b.labels[perm.index(i)] for i in range(len(pts)))
                     for b in enumerate_behaviors(cls, shuffled)}
            assert base == moved
