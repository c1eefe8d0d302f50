"""Hypothesis classes with known VC dimension and exact behavior enumeration.

Enumeration is what makes worst-case empirical risk minimization exact at
desk scale: every labeling the class realizes on a finite point set is
produced together with a canonical witness hypothesis, so the ERM oracle
is an argmin over finitely many behaviors.  ``behavior_table(points)`` gives
them as (B, N) int8 labels plus witnesses in canonical order, built in closed
form (no ``predict`` calls) except for ``FiniteClass``; ``enumerate_behaviors``
is the table as a list of ``Behavior`` tuples.

Each class also names, without enumerating again, the witness its
enumeration on a subset of the points would pick.  ``sample_witness(points,
seen, labels, first)`` takes full-domain behaviors ``labels`` (rows of +/-1
over ``points``, in enumeration order), the indices ``seen`` of the subset and
the witness ``first`` of ``labels[0]``.  It returns the witness that
``enumerate_behaviors([points[d] for d in seen])`` pairs with the first, in
its order, of the labelings the rows induce on the subset.  A sample-restricted
ERM is then a first minimum over the full-domain behaviors' scores.

Sign convention, fixed globally: a threshold labels +1 iff x >= t, and
intervals/rectangles label +1 on the closed region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

Label = int  # -1 or +1


class DomainError(ValueError):
    """Instance outside a hypothesis's domain."""


@dataclass(frozen=True)
class Threshold:
    """+1 iff x >= t, on the reals."""

    t: float

    def predict(self, x) -> Label:
        if isinstance(x, tuple):
            raise DomainError("threshold hypotheses are one-dimensional")
        return 1 if x >= self.t else -1

    def to_json(self):
        return {"classTag": "threshold-1d", "params": {"t": self.t}}


@dataclass(frozen=True)
class Interval:
    """+1 iff lo <= x <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval requires lo <= hi")

    def predict(self, x) -> Label:
        if isinstance(x, tuple):
            raise DomainError("interval hypotheses are one-dimensional")
        return 1 if self.lo <= x <= self.hi else -1

    def to_json(self):
        return {"classTag": "interval-1d", "params": {"lo": self.lo, "hi": self.hi}}


@dataclass(frozen=True)
class AxisRect:
    """+1 inside the closed axis-aligned box given by per-axis bounds."""

    lows: tuple
    highs: tuple

    def __post_init__(self):
        if len(self.lows) != len(self.highs):
            raise ValueError("bound dimension mismatch")
        if any(lo > hi for lo, hi in zip(self.lows, self.highs)):
            raise ValueError("rectangle requires lo <= hi per axis")

    def predict(self, x) -> Label:
        if not isinstance(x, tuple) or len(x) != len(self.lows):
            raise DomainError(f"expected a {len(self.lows)}-dimensional point")
        inside = all(lo <= xi <= hi for lo, xi, hi in zip(self.lows, x, self.highs))
        return 1 if inside else -1

    def to_json(self):
        return {"classTag": "axis-rect-d", "params": {"lows": list(self.lows), "highs": list(self.highs)}}


@dataclass(frozen=True)
class TableHypothesis:
    """Explicit labeling of a finite domain."""

    table: tuple  # sorted tuple of (point, label) pairs

    def __init__(self, mapping):
        items = tuple(sorted(dict(mapping).items()))
        if any(lab not in (-1, 1) for _, lab in items):
            raise ValueError("labels must be -1 or +1")
        object.__setattr__(self, "table", items)
        object.__setattr__(self, "_lookup", dict(items))

    def predict(self, x) -> Label:
        try:
            return self._lookup[x]
        except KeyError:
            raise DomainError(f"{x!r} not in the hypothesis table") from None

    def to_json(self):
        return {"classTag": "finite-table", "params": {"table": [[list(z) if isinstance(z, tuple) else z, y] for z, y in self.table]}}


class Behavior(NamedTuple):
    """One realizable labeling of a point set, with a canonical witness."""

    labels: tuple
    witness: object


def _signs(mask: np.ndarray) -> np.ndarray:
    """+1 where ``mask`` holds, else -1, as int8 labels."""
    return np.where(mask, np.int8(1), np.int8(-1))


def _line(points, tag: str) -> tuple:
    """One-dimensional ``points`` as a float array, and their sorted distinct values."""
    if not points:
        raise ValueError("points must be nonempty")
    values = sorted(set(points))
    if isinstance(values[-1], tuple):
        raise DomainError(f"{tag} hypotheses are one-dimensional")
    return np.array(points, dtype=float), values


def threshold_cuts(values: Sequence[float]) -> list:
    """The cuts of the threshold behaviors on sorted distinct ``values``.

    Each value, then the sentinel ``values[-1] + 1.0`` for the all-minus
    behavior.  Tuple points raise ``DomainError``, as ``Threshold.predict``
    does.
    """
    if isinstance(values[-1], tuple):
        raise DomainError("threshold hypotheses are one-dimensional")
    return list(values) + [values[-1] + 1.0]


class _Enumerable:
    """``enumerate_behaviors`` as the ``Behavior`` view of a class's ``behavior_table``."""

    def enumerate_behaviors(self, points) -> list[Behavior]:
        labels, witnesses = self.behavior_table(points)
        return [Behavior(tuple(row), w) for row, w in zip(labels.tolist(), witnesses)]


class ThresholdClass(_Enumerable):
    """All thresholds on the line; VC dimension 1."""

    tag = "threshold-1d"
    vc_dim = 1

    def behavior_table(self, points: Sequence[float]) -> tuple:
        """(B, N) int8 labels and witnesses of the n+1 sign patterns on n
        distinct points, ordered by ascending t.

        Canonical witness per behavior: the smallest point labeled +1, or
        max(points) + 1 for the all-minus behavior.
        """
        x, values = _line(points, self.tag)
        cuts = threshold_cuts(values)
        labels = _signs(x >= np.array(cuts, dtype=float)[:, None])
        return labels, [Threshold(float(t)) for t in cuts]

    def sample_witness(self, points, seen, labels, first) -> Threshold:
        """The smallest seen point any row labels +1, else max + 1."""
        values = [points[d] for d in seen]
        plus = (labels[:, seen] == 1).any(axis=0)
        if plus.any():
            return Threshold(float(min(v for v, p in zip(values, plus) if p)))
        return Threshold(float(max(values) + 1.0))


class IntervalClass(_Enumerable):
    """All closed intervals on the line; VC dimension 2."""

    tag = "interval-1d"
    vc_dim = 2

    def behavior_table(self, points: Sequence[float]) -> tuple:
        """(B, N) int8 labels and witnesses: the empty interval at min - 1, then
        [lo, hi] over the sorted distinct values, by lo and then hi."""
        x, values = _line(points, self.tag)
        empty = values[0] - 1.0
        lo, hi = np.triu_indices(len(values))
        v = np.array(values, dtype=float)
        los, his = np.append(empty, v[lo]), np.append(empty, v[hi])
        labels = _signs((los[:, None] <= x) & (x <= his[:, None]))
        return labels, [Interval(empty, empty), *map(Interval, los[1:].tolist(), his[1:].tolist())]

    def sample_witness(self, points, seen, labels, first) -> Interval:
        """The empty interval at min - 1 if a row is all -1 on the seen points,
        else the lexicographically smallest (lo, hi) of the rows' positive runs."""
        values = np.array([points[d] for d in seen], dtype=float)
        plus = labels[:, seen] == 1
        if not plus.any(axis=1).all():
            low = float(values.min()) - 1.0
            return Interval(low, low)
        lo = np.where(plus, values, np.inf).min(axis=1)
        hi = np.where(plus, values, -np.inf).max(axis=1)
        i = np.lexsort((hi, lo))[0]
        return Interval(float(lo[i]), float(hi[i]))


class AxisRectClass(_Enumerable):
    """Axis-aligned boxes in dimension ``dim``; VC dimension 2*dim.

    Enumeration cost grows as the product over axes of the squared number
    of distinct coordinates, so this is meant for low dimension.
    """

    tag = "axis-rect-d"

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        self.dim = dim
        self.vc_dim = 2 * dim

    def behavior_table(self, points: Sequence[tuple]) -> tuple:
        """(B, N) int8 labels of the candidate boxes' distinct labelings, first
        occurrences in candidate order (the box below every point, then (lo, hi)
        pairs of sorted distinct coordinates per axis, axis 0 outermost), and
        witnesses: the bounding box of the positive points, which realizes the
        same labeling whenever any box does, in the points' own coordinates."""
        if not points:
            raise ValueError("points must be nonempty")
        if any(not isinstance(p, tuple) or len(p) != self.dim for p in points):
            raise DomainError(f"expected {self.dim}-dimensional tuple points")
        coords = np.array(points, dtype=float)
        axis_values = [sorted({p[a] for p in points}) for a in range(self.dim)]
        below = tuple(vals[0] - 1.0 for vals in axis_values)
        inside = np.ones((1, len(points)), dtype=bool)
        for a, vals in enumerate(axis_values):
            v = np.array(vals, dtype=float)
            lo, hi = np.triu_indices(len(v))
            pairs = (v[lo, None] <= coords[:, a]) & (coords[:, a] <= v[hi, None])
            inside = (inside[:, None] & pairs).reshape(-1, len(points))
        in_below = (coords == np.array(below)).all(axis=1)
        candidates = _signs(np.vstack([in_below, inside]))
        labels = candidates[np.sort(np.unique(candidates, axis=0, return_index=True)[1])]
        # per behavior, the first positive point at each axis's min and max, as min() and max() pick
        pos = labels == 1
        order = np.argsort(np.hstack([coords, -coords]), axis=0, kind="stable").T
        ends = np.stack([o[pos[:, o].argmax(axis=1)] for o in order], axis=1).tolist()
        witnesses = [AxisRect(tuple(points[i][a] for a, i in enumerate(e[:self.dim])),
                              tuple(points[i][a] for a, i in enumerate(e[self.dim:])))
                     if any_pos else AxisRect(below, below)
                     for any_pos, e in zip(pos.any(axis=1).tolist(), ends)]
        return labels, witnesses

    def sample_witness(self, points, seen, labels, first) -> AxisRect:
        """The below box if a row is all -1 on the seen points; else the bounding
        box of the positives of the row whose first realizing candidate box
        comes first in the (lo_0, hi_0, lo_1, hi_1, ...) order of enumeration.

        That candidate is built axis by axis: the smallest seen coordinate lo_a
        that still excludes every negative, with hi_a at the bounding box, the
        earlier axes at their chosen bounds and the later ones at the bounding box.
        """
        coords = np.array([points[d] for d in seen], dtype=float)
        rows = np.unique(labels[:, seen] == 1, axis=0)
        if not rows.any(axis=1).all():
            below = tuple(float(v) - 1.0 for v in coords.min(axis=0))
            return AxisRect(below, below)
        axis_values = [np.unique(coords[:, a]) for a in range(self.dim)]
        best_key, best_row = None, None
        for row in rows:
            pos, neg = coords[row], coords[~row]
            lows, highs = pos.min(axis=0), pos.max(axis=0)
            key = []
            for a, vals in enumerate(axis_values):
                # the negatives that a box reaching down to lo_a on axis a would hold
                within = (neg >= lows) & (neg <= highs)
                within[:, a] = neg[:, a] <= highs[a]
                blockers = neg[within.all(axis=1), a]
                if blockers.size:
                    lows[a] = vals[np.searchsorted(vals, blockers.max(), side="right")]
                else:
                    lows[a] = vals[0]
                key += [lows[a], highs[a]]
            if best_key is None or key < best_key:
                best_key, best_row = key, row
        pos = [points[d] for d, p in zip(seen, best_row) if p]
        return AxisRect(tuple(min(p[a] for p in pos) for a in range(self.dim)),
                        tuple(max(p[a] for p in pos) for a in range(self.dim)))


class FiniteClass(_Enumerable):
    """An explicit finite list of hypotheses.

    The VC dimension bound is floor(log2 |H|) (at least one): shattering d
    points takes 2^d distinct behaviors.
    """

    tag = "finite-table"

    def __init__(self, hypotheses: Sequence[object]):
        self.hypotheses = tuple(hypotheses)
        if not self.hypotheses:
            raise ValueError("empty hypothesis list")
        self.vc_dim = max(1, int(math.floor(math.log2(len(self.hypotheses)))))

    def behavior_table(self, points) -> tuple:
        """(B, N) int8 labels of the distinct labelings, each with its first hypothesis."""
        if not points:
            raise ValueError("points must be nonempty")
        seen = {}
        for h in self.hypotheses:
            seen.setdefault(tuple(h.predict(x) for x in points), h)
        return np.array(list(seen), dtype=np.int8), list(seen.values())

    def sample_witness(self, points, seen, labels, first):
        """The first hypothesis in list order among the rows: ``first``."""
        return first


def enumerate_behaviors(cls, points) -> list[Behavior]:
    """Every labeling ``cls`` realizes on ``points``, each with one witness."""
    fn = getattr(cls, "enumerate_behaviors", None)
    if fn is None:
        raise TypeError(f"behavior enumeration is not implemented for {type(cls).__name__}")
    return fn(points)


def sauer_bound(n: int, d: int) -> float:
    """Upper bound on the growth function at n points for VC dimension d.

    Uses (e n / d)^d for n >= d and the exact shattering cap 2^n below.
    """
    if n <= d:
        return float(2 ** n)
    return (math.e * n / d) ** d
