import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drloss.hypo import (
    AxisRect,
    AxisRectClass,
    Behavior,
    DomainError,
    FiniteClass,
    Interval,
    IntervalClass,
    TableHypothesis,
    Threshold,
    ThresholdClass,
    threshold_cuts,
)
from drloss.xprun import load_config
from drloss.xprun.config import check
from drloss.xprun.suites import _finite_setup

from generators import load_workloads, rng_for


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
        behaviors = ThresholdClass().enumerate_behaviors([0.0, 1.0, 2.0])
        assert len(behaviors) == 4

    def test_ten_points_vs_sauer(self):
        pts = [float(i) for i in range(10)]
        behaviors = ThresholdClass().enumerate_behaviors(pts)
        assert len(behaviors) == 11
        assert len(behaviors) <= sauer_bound(10, 1)  # e*10 ~ 27.2

    def test_witnesses_reproduce_labels(self):
        pts = [3.0, 0.0, 2.0, 1.0]  # unsorted on purpose
        for b in ThresholdClass().enumerate_behaviors(pts):
            assert tuple(b.witness.predict(x) for x in pts) == b.labels

    def test_canonical_order_ascending_cut(self):
        behaviors = ThresholdClass().enumerate_behaviors([0.0, 1.0])
        assert [b.witness.t for b in behaviors] == [0.0, 1.0, 2.0]
        assert behaviors[0].labels == (1, 1)
        assert behaviors[-1].labels == (-1, -1)

    def test_tuple_points_raise_domain_error(self):
        with pytest.raises(DomainError):
            ThresholdClass().enumerate_behaviors([(0.0, 1.0), (2.0, 3.0)])


class TestIntervalEnumeration:
    def test_two_points_shattered(self):
        behaviors = IntervalClass().enumerate_behaviors([0.0, 1.0])
        assert len(behaviors) == 4
        assert {b.labels for b in behaviors} == {(-1, -1), (1, -1), (-1, 1), (1, 1)}

    def test_count_formula(self):
        pts = [float(i) for i in range(5)]
        behaviors = IntervalClass().enumerate_behaviors(pts)
        assert len(behaviors) == 5 * 6 // 2 + 1

    def test_witnesses_reproduce_labels(self):
        pts = [2.0, 0.0, 1.0]
        for b in IntervalClass().enumerate_behaviors(pts):
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
        behaviors = AxisRectClass(2).enumerate_behaviors(pts)
        assert {b.labels for b in behaviors} == rect_realizable_labelings(pts)

    def test_witnesses_reproduce_labels(self):
        pts = [(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)]
        for b in AxisRectClass(2).enumerate_behaviors(pts):
            assert tuple(b.witness.predict(x) for x in pts) == b.labels

    def test_vc_dim(self):
        assert AxisRectClass(3).vc_dim == 6


class TestFiniteClass:
    def test_distinct_rows_and_first_witness(self):
        h1 = TableHypothesis({0.0: 1, 1.0: 1})
        h2 = TableHypothesis({0.0: 1, 1.0: -1})
        h3 = TableHypothesis({0.0: 1, 1.0: 1})  # duplicate behavior of h1
        cls = FiniteClass([h1, h2, h3])
        behaviors = cls.enumerate_behaviors([0.0, 1.0])
        assert len(behaviors) == 2
        assert behaviors[0].witness is h1

    def test_vc_dim_log_bound(self):
        hyps = [TableHypothesis({0.0: 1}), TableHypothesis({0.0: -1})]
        assert FiniteClass(hyps).vc_dim == 1
        assert FiniteClass(hyps * 8).vc_dim == 4  # 16 tables -> floor(log2 16)


def sauer_bound(n: int, d: int) -> float:
    """Sauer's bound on the growth function at n points for VC dimension d:
    (e n / d)^d for n > d, and the shattering cap 2^n otherwise."""
    if n <= d:
        return float(2 ** n)
    return (math.e * n / d) ** d


class TestSauerProperty:
    @given(st.integers(0, 10**6), st.integers(1, 12))
    def test_threshold_and_interval_growth(self, seed, n_pts):
        r = rng_for(seed)
        pts = sorted(set(float(v) for v in r.integers(0, 30, size=n_pts)))
        if not pts:
            return
        for cls in (ThresholdClass(), IntervalClass()):
            count = len(cls.enumerate_behaviors(pts))
            assert count <= sauer_bound(len(pts), cls.vc_dim) + 1e-9

    @given(st.integers(0, 10**6))
    def test_rect_growth(self, seed):
        r = rng_for(seed)
        pts = list(dict.fromkeys(
            tuple(float(v) for v in r.integers(0, 5, size=2)) for _ in range(6)))
        cls = AxisRectClass(2)
        count = len(cls.enumerate_behaviors(pts))
        assert count <= sauer_bound(len(pts), cls.vc_dim) + 1e-9

    def test_small_n_uses_exact_cap(self):
        # sets of at most vc_dim points in general position are shattered,
        # so the classes reach the cap 2^n exactly
        assert len(IntervalClass().enumerate_behaviors([0.0])) == sauer_bound(1, 2) == 2.0
        assert len(IntervalClass().enumerate_behaviors([0.0, 1.0])) == sauer_bound(2, 2) == 4.0
        diamond = [(0.0, 1.0), (1.0, 0.0), (2.0, 1.0), (1.0, 2.0)]
        assert len(AxisRectClass(2).enumerate_behaviors(diamond)) == sauer_bound(4, 4) == 16.0


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
            base = {b.labels for b in cls.enumerate_behaviors(pts)}
            moved = {tuple(b.labels[perm.index(i)] for i in range(len(pts)))
                     for b in cls.enumerate_behaviors(shuffled)}
            assert base == moved


# The per-predicate loops that the closed-form behavior tables replaced, kept
# as the slow reference: one ``predict`` call per (behavior, point).

def oracle_threshold(points):
    if not points:
        raise ValueError("points must be nonempty")
    out = []
    for t in threshold_cuts(sorted(set(points))):
        h = Threshold(float(t))
        out.append(Behavior(tuple(h.predict(x) for x in points), h))
    return out


def oracle_interval(points):
    if not points:
        raise ValueError("points must be nonempty")
    values = sorted(set(points))
    empty = Interval(values[0] - 1.0, values[0] - 1.0)
    out = [Behavior(tuple(empty.predict(x) for x in points), empty)]
    for i, lo in enumerate(values):
        for hi in values[i:]:
            h = Interval(float(lo), float(hi))
            out.append(Behavior(tuple(h.predict(x) for x in points), h))
    return out


def oracle_rect(dim, points):
    if not points:
        raise ValueError("points must be nonempty")
    if any(not isinstance(p, tuple) or len(p) != dim for p in points):
        raise DomainError(f"expected {dim}-dimensional tuple points")
    axis_values = [sorted(set(p[a] for p in points)) for a in range(dim)]
    boxes = [[]]
    for vals in axis_values:
        pairs = [(lo, hi) for i, lo in enumerate(vals) for hi in vals[i:]]
        boxes = [b + [pq] for b in boxes for pq in pairs]
    below = tuple(vals[0] - 1.0 for vals in axis_values)
    candidates = [AxisRect(below, below)]
    candidates += [AxisRect(tuple(lo for lo, _ in b), tuple(hi for _, hi in b)) for b in boxes]
    seen = {}
    for h in candidates:
        labels = tuple(h.predict(x) for x in points)
        if labels in seen:
            continue
        pos = [x for x, lab in zip(points, labels) if lab == 1]
        if pos:
            witness = AxisRect(tuple(min(p[a] for p in pos) for a in range(dim)),
                               tuple(max(p[a] for p in pos) for a in range(dim)))
        else:
            witness = AxisRect(below, below)
        seen[labels] = witness
    return [Behavior(labels, w) for labels, w in seen.items()]


def oracle_finite(hypotheses, points):
    if not points:
        raise ValueError("points must be nonempty")
    seen = {}
    for h in hypotheses:
        labels = tuple(h.predict(x) for x in points)
        if labels not in seen:
            seen[labels] = h
    return [Behavior(labels, w) for labels, w in seen.items()]


def oracle(hclass, points):
    if isinstance(hclass, ThresholdClass):
        return oracle_threshold(points)
    if isinstance(hclass, IntervalClass):
        return oracle_interval(points)
    if isinstance(hclass, AxisRectClass):
        return oracle_rect(hclass.dim, points)
    return oracle_finite(hclass.hypotheses, points)


def described(behaviors):
    """Labels, witness repr and witness JSON text: an int coordinate is not a float one."""
    return [(b.labels, repr(b.witness), json.dumps(b.witness.to_json())) for b in behaviors]


def assert_table_matches(table, expected, n_points):
    labels, witnesses = table
    assert labels.dtype == np.int8 and labels.shape == (len(expected), n_points)
    assert described(Behavior(tuple(r), w) for r, w in zip(labels.tolist(), witnesses)) \
        == described(expected)


def assert_matches_oracle(hclass, points):
    expected = oracle(hclass, points)
    assert_table_matches(hclass.behavior_table(points), expected, len(points))
    behaviors = hclass.enumerate_behaviors(points)
    assert described(behaviors) == described(expected)
    assert all(type(v) is int for b in behaviors for v in b.labels)


# ties between ints and floats, and between 0.0 and -0.0, on purpose
VALUES = st.sampled_from([-2, -1, 0, 1, 2, -1.5, -0.0, 0.0, 0.5, 1.0, 2.0, 3.25])


class TestBehaviorTables:
    @given(st.lists(VALUES, min_size=1, max_size=12))
    def test_line_classes_match_oracle(self, points):
        for hclass in (ThresholdClass(), IntervalClass()):
            assert_matches_oracle(hclass, points)

    @given(st.integers(1, 3), st.data())
    def test_rects_match_oracle(self, dim, data):
        points = data.draw(st.lists(st.tuples(*[VALUES] * dim), min_size=1, max_size=8))
        assert_matches_oracle(AxisRectClass(dim), points)

    def test_rect_witness_keeps_point_coordinates(self):
        # a tie keeps the first point's coordinate, int or float, as min() and max() do
        points = [(1, 0.5), (1.0, 2), (0, 2.0)]
        labels, witnesses = AxisRectClass(2).behavior_table(points)
        full = witnesses[labels.tolist().index([1, 1, 1])]
        assert json.dumps(full.to_json()["params"]) == '{"lows": [0, 0.5], "highs": [1, 2]}'
        assert_matches_oracle(AxisRectClass(2), points)

    def test_wide_domains_match_oracle(self):
        line = [float(i) for i in range(40)][::-1]
        assert_matches_oracle(ThresholdClass(), line)
        assert_matches_oracle(IntervalClass(), line)
        grid = [(float(i), float(j)) for i in range(4) for j in range(4)]
        assert_matches_oracle(AxisRectClass(2), grid[::-1])

    @given(st.integers(0, 10**6), st.integers(1, 6))
    def test_finite_class_matches_oracle(self, seed, count):
        r = rng_for(seed)
        domain = [0.0, 1.0, 2.0, 3.0]
        hyps = [TableHypothesis({z: int(r.choice([-1, 1])) for z in domain}) for _ in range(count)]
        assert_matches_oracle(FiniteClass(hyps), [2.0, 0.0, 3.0, 2.0])

    @pytest.mark.parametrize("hclass", [ThresholdClass(), IntervalClass(), AxisRectClass(2),
                                        FiniteClass([TableHypothesis({0.0: 1})])],
                             ids=["threshold", "interval", "rect", "finite"])
    def test_empty_points_raise_value_error(self, hclass):
        for fn in (hclass.behavior_table, hclass.enumerate_behaviors, lambda p: oracle(hclass, p)):
            with pytest.raises(ValueError, match="nonempty"):
                fn([])

    @pytest.mark.parametrize("points", [[(0.0, 1.0), (2.0, 3.0)], [(1.0,)]], ids=["2d", "1-tuple"])
    def test_tuple_points_on_line_classes_raise_domain_error(self, points):
        for hclass in (ThresholdClass(), IntervalClass()):
            for fn in (hclass.behavior_table, hclass.enumerate_behaviors):
                with pytest.raises(DomainError):
                    fn(points)
        with pytest.raises(DomainError):
            oracle_threshold(points)
        # the loop subtracted 1.0 from a tuple before any predict call
        with pytest.raises(TypeError):
            oracle_interval(points)

    @pytest.mark.parametrize("points", [
        [(0.0, 1.0, 2.0)], [0.5, 1.0], [(0.0, 1.0), 1.0], [(0.0, 1.0), [1.0, 2.0]],
    ], ids=["3d", "floats", "mixed", "list"])
    def test_wrong_dimension_rects_raise_domain_error(self, points):
        hclass = AxisRectClass(2)
        for fn in (hclass.behavior_table, hclass.enumerate_behaviors, lambda p: oracle_rect(2, p)):
            with pytest.raises(DomainError):
                fn(points)


def finite_setup(cfg):
    """The ERM suites' setup of a loaded config, as ``run_suite`` checks and runs it."""
    return _finite_setup(check(dict(vars(cfg))))


class TestFiniteViewBehaviors:
    """``FiniteView.behaviors`` reads the class's table; the loops give the same behaviors."""

    @staticmethod
    def assert_setup_matches_oracle(s, hclass=None):
        hclass = hclass or s.hclass
        expected = oracle(hclass, s.view.points)
        assert_table_matches(s.view.behaviors(hclass), expected, s.view.n_points)
        if hclass is s.hclass:  # what the suite itself reads
            assert_table_matches((s.labels, s.witnesses), expected, s.view.n_points)

    @pytest.mark.parametrize("kind", ["realizable", "agnostic", "model1", "model2",
                                      "double-sampling"])
    def test_default_tasks(self, kind):
        s = finite_setup(load_config(kind))
        self.assert_setup_matches_oracle(s)
        self.assert_setup_matches_oracle(s, IntervalClass())

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["threshold-128", "interval-24", "rect-4x4"])
    def test_ladder_tasks(self, tmp_path, index):
        workloads = load_workloads()
        path = tmp_path / "ladder.json"
        path.write_text(json.dumps(workloads.ladder_config(*workloads.LADDER[index])))
        self.assert_setup_matches_oracle(finite_setup(load_config("realizable", path=str(path))))
