"""Hypothesis classes with known VC dimension and exact behavior enumeration.

Enumeration is what makes worst-case empirical risk minimization exact at
desk scale: every labeling the class realizes on a finite point set is
produced together with a canonical witness hypothesis, so the ERM oracle
is an argmin over finitely many behaviors.

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


def _distinct_sorted(values):
    return sorted(set(values))


def threshold_cuts(values: Sequence[float]) -> list:
    """The cuts of the threshold behaviors on sorted distinct ``values``.

    Each value, then the sentinel ``values[-1] + 1.0`` for the all-minus
    behavior.  Tuple points raise ``DomainError``, as ``Threshold.predict``
    does.
    """
    if isinstance(values[-1], tuple):
        raise DomainError("threshold hypotheses are one-dimensional")
    return list(values) + [values[-1] + 1.0]


class ThresholdClass:
    """All thresholds on the line; VC dimension 1."""

    tag = "threshold-1d"
    vc_dim = 1

    def enumerate_behaviors(self, points: Sequence[float]) -> list[Behavior]:
        """The n+1 sign patterns on n distinct points, ordered by ascending t.

        Canonical witness per behavior: the smallest point labeled +1, or
        max(points) + 1 for the all-minus behavior.
        """
        if not points:
            raise ValueError("points must be nonempty")
        out = []
        for t in threshold_cuts(_distinct_sorted(points)):
            h = Threshold(float(t))
            out.append(Behavior(tuple(h.predict(x) for x in points), h))
        return out

    def sample_witness(self, points, seen, labels, first) -> Threshold:
        """The smallest seen point any row labels +1, else max + 1."""
        values = [points[d] for d in seen]
        plus = (labels[:, seen] == 1).any(axis=0)
        if plus.any():
            return Threshold(float(min(v for v, p in zip(values, plus) if p)))
        return Threshold(float(max(values) + 1.0))


class IntervalClass:
    """All closed intervals on the line; VC dimension 2."""

    tag = "interval-1d"
    vc_dim = 2

    def enumerate_behaviors(self, points: Sequence[float]) -> list[Behavior]:
        if not points:
            raise ValueError("points must be nonempty")
        values = _distinct_sorted(points)
        empty = Interval(values[0] - 1.0, values[0] - 1.0)
        out = [Behavior(tuple(empty.predict(x) for x in points), empty)]
        for i, lo in enumerate(values):
            for hi in values[i:]:
                h = Interval(float(lo), float(hi))
                out.append(Behavior(tuple(h.predict(x) for x in points), h))
        return out

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


class AxisRectClass:
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

    def enumerate_behaviors(self, points: Sequence[tuple]) -> list[Behavior]:
        if not points:
            raise ValueError("points must be nonempty")
        if any(not isinstance(p, tuple) or len(p) != self.dim for p in points):
            raise DomainError(f"expected {self.dim}-dimensional tuple points")
        axis_values = [_distinct_sorted(p[a] for p in points) for a in range(self.dim)]
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
            # Canonical witness: bounding box of the positive points, which
            # realizes the same labeling whenever any box does.
            pos = [x for x, lab in zip(points, labels) if lab == 1]
            if pos:
                witness = AxisRect(tuple(min(p[a] for p in pos) for a in range(self.dim)),
                                   tuple(max(p[a] for p in pos) for a in range(self.dim)))
            else:
                witness = AxisRect(below, below)
            seen[labels] = witness
        return [Behavior(labels, w) for labels, w in seen.items()]

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


class FiniteClass:
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

    def enumerate_behaviors(self, points) -> list[Behavior]:
        if not points:
            raise ValueError("points must be nonempty")
        seen = {}
        for h in self.hypotheses:
            labels = tuple(h.predict(x) for x in points)
            if labels not in seen:
                seen[labels] = h
        return [Behavior(labels, w) for labels, w in seen.items()]

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
