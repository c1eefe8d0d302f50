"""Built-in tasks and synthetic constructions used by the experiment suites.

Everything here is desk-scale and fully discrete (Gaussians excepted for
the smoothing task), so exact brute-force evaluation is always available.
The canonical running task ``t1`` places a negative example at 0 and a
positive one at 3, each with a point-mass member and a two-point uniform
member; thresholds in (1, 2] achieve zero worst-case loss on it.
"""

from __future__ import annotations

import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .derand import AttackTask, RandomizedCertifier, RandomizedClassifier
from .hypo import TableHypothesis
from .loss import TaskInstance
from .perturb import DistributionFamily, FiniteDistribution, GaussianDistribution


def t1() -> TaskInstance:
    """Two atoms, realizable by thresholds in (1, 2]."""
    data = FiniteDistribution([(0.0, -1), (3.0, 1)], [0.5, 0.5])
    families = {
        0.0: DistributionFamily(
            [FiniteDistribution.point_mass(0.0), FiniteDistribution.uniform([0.0, 1.0])], k=2),
        3.0: DistributionFamily(
            [FiniteDistribution.point_mass(3.0), FiniteDistribution.uniform([2.0, 3.0])], k=2),
    }
    return TaskInstance(data, families)


def with_label_noise(task: TaskInstance, rate: float) -> TaskInstance:
    """Flip each atom's label with probability ``rate``; families stay keyed by x."""
    if not 0 <= rate < 0.5:
        raise ValueError("noise rate must be in [0, 1/2)")
    mass: dict = {}
    for x, y, p in task.atoms():
        mass[(x, y)] = mass.get((x, y), 0.0) + p * (1.0 - rate)
        mass[(x, -y)] = mass.get((x, -y), 0.0) + p * rate
    pairs = sorted(mass.items())
    data = FiniteDistribution([xy for xy, _ in pairs], [p for _, p in pairs])
    return TaskInstance(data, task.family_of)


def model1_task() -> TaskInstance:
    """Representative sets at TV radius exactly 0.1 from the extra true members.

    Each true family adds one member that leaks 0.1 mass across the label
    boundary, so a representative-trained zero-loss threshold carries true
    loss 0.1: nonzero but inside the epsilon + 0.1 guarantee.
    """
    data = FiniteDistribution([(0.0, -1), (3.0, 1)], [0.5, 0.5])
    rep0 = FiniteDistribution.uniform([0.0, 1.0])
    leak0 = FiniteDistribution([0.0, 1.0, 2.0], [0.45, 0.45, 0.10])
    rep3 = FiniteDistribution.uniform([2.0, 3.0])
    leak3 = FiniteDistribution([1.0, 2.0, 3.0], [0.10, 0.45, 0.45])
    families = {
        0.0: DistributionFamily([rep0, leak0], [rep0], k=1),
        3.0: DistributionFamily([rep3, leak3], [rep3], k=1),
    }
    return TaskInstance(data, families)


def model2_task() -> TaskInstance:
    """Pointwise-dominated true member: the renormalized max of two representatives."""
    data = FiniteDistribution([(0.0, -1), (3.0, 1)], [0.5, 0.5])
    r1 = FiniteDistribution.uniform([0.0, 1.0])
    r2 = FiniteDistribution([0.0, 2.0], [0.8, 0.2])
    # max density (0.8, 0.5, 0.2) renormalized by its mass 1.5
    mix = FiniteDistribution([0.0, 1.0, 2.0], [8 / 15, 5 / 15, 2 / 15])
    d3 = FiniteDistribution.point_mass(3.0)
    families = {
        0.0: DistributionFamily([r1, r2, mix], [r1, r2], k=2),
        3.0: DistributionFamily([d3], [d3], k=2),
    }
    return TaskInstance(data, families)


def near_threshold_task() -> TaskInstance:
    """One behavior sits just above the target loss level.

    At epsilon = 0.2 the threshold-at-1 behavior has exact worst-case loss
    0.225, and tiny samples (n = 2, m = 3) leave it unseparated often
    enough that the zero-train-loss event has visible probability.
    """
    data = FiniteDistribution([(0.0, -1), (3.0, 1)], [0.5, 0.5])
    families = {
        0.0: DistributionFamily([FiniteDistribution([0.0, 1.0], [0.55, 0.45])], k=1),
        3.0: DistributionFamily([FiniteDistribution.point_mass(3.0)], k=1),
    }
    return TaskInstance(data, families)


def hoeffding_inner_task() -> TaskInstance:
    """Single atom whose one member is a fair coin for the paired hypothesis.

    With the threshold at 0.5 the member Unif{0, 1} is misclassified with
    probability exactly 1/2, the worst case for a binomial tail.
    """
    data = FiniteDistribution([(0.0, -1)], [1.0])
    families = {0.0: DistributionFamily([FiniteDistribution.uniform([0.0, 1.0])], k=1)}
    return TaskInstance(data, families)


def hoeffding_outer_task() -> TaskInstance:
    """Two point-mass atoms giving the per-example loss a fair-coin law."""
    data = FiniteDistribution([(0.0, -1), (1.0, -1)], [0.5, 0.5])
    families = {
        0.0: DistributionFamily([FiniteDistribution.point_mass(0.0)], k=1),
        1.0: DistributionFamily([FiniteDistribution.point_mass(1.0)], k=1),
    }
    return TaskInstance(data, families)


def smoothing_task(sigma: float = 1.0) -> TaskInstance:
    """Real-line task whose single family member is the Gaussian around each atom."""
    data = FiniteDistribution([(0.0, -1), (3.0, 1)], [0.5, 0.5])
    families = {
        x: DistributionFamily([GaussianDistribution(x, sigma)],
                              [GaussianDistribution(x, sigma)], k=1)
        for x in (0.0, 3.0)
    }
    return TaskInstance(data, families)


def with_constructed_cover(task: TaskInstance, k: int) -> TaskInstance:
    """Replace every family's representative set with a greedy k-center cover.

    For tasks that ship only true families, this is how Model I experiments
    obtain their representatives; the achieved TV radius is whatever the
    greedy construction reaches, and the suites read it off the task.
    """
    from .perturb import build_representative_cover

    families = {}
    for x, fam in task.family_of.items():
        cover = build_representative_cover(fam.true_set, k)
        families[x] = DistributionFamily(fam.true_set, cover.representatives, k=k)
    return TaskInstance(task.data_dist, families)


def grid_randomness(grid: int = 1000) -> FiniteDistribution:
    """Uniform finite randomness on midpoints of [0, 1); keeps vote math exact.

    Any per-draw error probability that is a multiple of 1/grid is realized
    exactly by thresholding a draw, so constructed error levels like 0.2
    are not approximations.
    """
    return FiniteDistribution.uniform([(i + 0.5) / grid for i in range(grid)])


@dataclass(frozen=True)
class DerandSetup:
    """A synthetic randomized classifier with analytically known per-point errors."""

    attack_task: AttackTask
    base: RandomizedClassifier
    errors: dict          # attack point -> per-draw error probability
    mean_error: float     # expected worst per-draw error over the data


def derand_classifier_setup(p_err: float = 0.2, a_size: int = 8, grid: int = 1000,
                            p_err_high: Optional[float] = None) -> DerandSetup:
    """Two-atom attack task with a constructed per-draw error at every attack point.

    All attack points err with probability ``p_err``; when ``p_err_high``
    is given, the positive atom's points use it instead (half the data
    mass), which puts that mass beyond any vote count's reach once the
    level crosses one half.
    """
    atoms = [((0.0, -1), 0.5), ((10.0, 1), 0.5)]
    data = FiniteDistribution([xy for xy, _ in atoms], [p for _, p in atoms])
    attacks = {
        0.0: tuple(0.0 + 0.1 * s for s in range(a_size)),
        10.0: tuple(10.0 + 0.1 * s for s in range(a_size)),
    }
    errors = {}
    label_of = {}
    for (x, y), _ in atoms:
        level = p_err
        if p_err_high is not None and y == 1:
            level = p_err_high
        for xp in attacks[x]:
            errors[xp] = level
            label_of[xp] = y

    def evaluate(xp, r):
        return -label_of[xp] if r < errors[xp] else label_of[xp]

    base = RandomizedClassifier(evaluate=evaluate, randomness=grid_randomness(grid))
    task = AttackTask(data, attacks)
    mean_error = sum(p * max(errors[xp] for xp in attacks[x]) for (x, _), p in atoms)
    return DerandSetup(task, base, errors, mean_error)


@dataclass(frozen=True)
class CertifierSetup:
    """A synthetic randomized certifier with a known in-band probability."""

    attack_task: AttackTask
    certifier: RandomizedCertifier
    q_in: float
    alpha: float
    beta: float


def derand_certifier_setup(q_in: float = 0.9, a_size: int = 8, grid: int = 1000,
                           alpha: float = 0.5, beta: float = 0.5) -> CertifierSetup:
    """Certifier whose radius is exact with probability ``q_in``, else far above band.

    The ground-truth robust region is the distance to the cut at 1.5 of the
    underlying threshold classifier; attack points stay clear of the cut so
    the region is always positive here.
    """
    cut = 1.5
    data = FiniteDistribution([(0.0, -1), (3.0, 1)], [0.5, 0.5])
    attacks = {
        0.0: tuple(0.0 + 0.1 * s for s in range(a_size)),
        3.0: tuple(3.0 - 0.1 * s for s in range(a_size)),
    }

    def robust_region(xp):
        return abs(xp - cut)

    def evaluate(xp, r):
        region = robust_region(xp)
        return region * (2.0 + alpha) if r < 1.0 - q_in else region

    cert = RandomizedCertifier(evaluate=evaluate, randomness=grid_randomness(grid),
                               robust_region=robust_region)
    return CertifierSetup(AttackTask(data, attacks), cert, q_in, alpha, beta)


BUILTIN_TASKS: dict = {
    "t1": t1,
    "t1-noise": lambda rate=0.1: with_label_noise(t1(), rate),
    "model1": model1_task,
    "model2": model2_task,
    "near-threshold": near_threshold_task,
    "hoeffding-inner": hoeffding_inner_task,
    "hoeffding-outer": hoeffding_outer_task,
    "smoothing": smoothing_task,
}


def is_number(v) -> bool:
    """Whether ``v`` is a JSON number: an int or float, not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def point_from_json(z, coord=float):
    """A domain point from its JSON form: a number, or a nonempty list of numbers.

    A number becomes a float and a list a tuple point, each coordinate
    mapped by ``coord``.  Hypothesis tables keep their coordinates as written
    (``coord=None``), because their ``to_json`` echoes them into reports.
    """
    if isinstance(z, list) and z and all(map(is_number, z)):
        return tuple(z) if coord is None else tuple(map(coord, z))
    if is_number(z):
        return float(z)
    raise ValueError(f"a point must be a number or a nonempty list of numbers, got {z!r}")


def label_from_json(y) -> int:
    """A label from its JSON form; anything but -1 or +1 is an error."""
    if not is_number(y) or y not in (-1, 1):
        raise ValueError(f"a label must be -1 or +1, got {y!r}")
    return int(y)


def table_from_json(pairs) -> TableHypothesis:
    """A finite-table hypothesis from its [[point, label], ...] form."""
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise ValueError(f"a table must be a list of [point, label] pairs, got {pairs!r}")
    return TableHypothesis({point_from_json(x, coord=None): label_from_json(y) for x, y in pairs})


def _known(what: str, given: dict, allowed) -> None:
    """Reject the keys of ``given`` that ``allowed`` does not name."""
    unknown = [repr(key) for key in given if key not in allowed]
    if unknown:
        raise ValueError(f"unknown {what} key {', '.join(unknown)}; "
                         f"expected {', '.join(allowed) or 'none'}")


def _finite(what: str, v) -> float:
    """``v`` as a float if it is a finite JSON number; a string, bool, nan or inf is an error."""
    # nan, inf and integers past float range fail the comparison
    if not is_number(v) or not abs(v) < 2 ** 1023:
        raise ValueError(f"{what} must be a finite number, got {v!r}")
    return float(v)


def _rows(what: str, v, width: int) -> list:
    """``v`` if it is a list of ``width``-item lists."""
    if not isinstance(v, list) or not all(isinstance(r, list) and len(r) == width for r in v):
        raise ValueError(f"{what} must be a list of {width}-item lists, got {v!r}")
    return v


def _distribution_from_json(name: str, spec):
    if isinstance(spec, dict):
        _known(f"distribution {name!r}", spec, ("gaussian",))
        g = spec.get("gaussian")
        if not isinstance(g, dict) or set(g) != {"center", "sigma"}:
            raise ValueError(f"distribution {name!r}: gaussian needs center and sigma, got {g!r}")
        return GaussianDistribution(point_from_json(g["center"]),
                                    _finite(f"distribution {name!r} sigma", g["sigma"]))
    pairs = _rows(f"distribution {name!r}", spec, 2)
    return FiniteDistribution([point_from_json(z) for z, _ in pairs],
                              [_finite(f"distribution {name!r} probability", p) for _, p in pairs])


def task_from_dict(d: dict) -> TaskInstance:
    """Build a task from its declarative form.

    Schema::

        atoms: [[x, y, prob], ...]
        distributions: {name: [[point, prob], ...] | {gaussian: {center, sigma}}}
        families: [{x: _, true: [names], rep: [names] | null, k: int}, ...]

    Probabilities and sigma must be numbers and ``k`` an integer (2.0
    counts as 2); anything else raises ``ValueError``.
    """
    if not isinstance(d, dict):
        raise ValueError(f"a task must be a mapping, got {d!r}")
    _known("task", d, ("atoms", "distributions", "families"))
    specs = d.get("distributions")
    if not isinstance(specs, dict):
        raise ValueError(f"task distributions must be a mapping, got {specs!r}")
    dists = {name: _distribution_from_json(name, spec) for name, spec in specs.items()}
    atoms = _rows("task atoms", d.get("atoms"), 3)
    data = FiniteDistribution(
        [(point_from_json(x), label_from_json(y)) for x, y, _ in atoms],
        [_finite("atom probability", p) for _, _, p in atoms],
    )

    def members(x, names):
        if not isinstance(names, list):
            raise ValueError(f"family {x!r}: members must be a list of names, got {names!r}")
        for name in names:
            if not isinstance(name, str) or name not in dists:
                raise ValueError(f"family {x!r} names unknown distribution {name!r}")
        return [dists[name] for name in names]

    families = {}
    fams = d.get("families")
    if not isinstance(fams, list) or not all(isinstance(fam, dict) for fam in fams):
        raise ValueError(f"task families must be a list of mappings, got {fams!r}")
    for fam in fams:
        _known("family", fam, ("x", "true", "rep", "k"))
        x = fam.get("x")
        k = _finite(f"family {x!r} k", fam.get("k", 1))
        if k % 1:
            raise ValueError(f"family {x!r} k must be an integer, got {k!r}")
        rep = fam.get("rep")
        families[point_from_json(x)] = DistributionFamily(
            members(x, fam.get("true")),
            members(x, rep) if rep is not None else None,
            k=int(k),
        )
    return TaskInstance(data, families)


def build_task(spec: dict) -> TaskInstance:
    """Resolve a config task reference: builtin name, inline table, or file.

    A malformed reference (unknown keys, a builtin param the builtin does
    not take or that is not a finite number) raises ``ValueError``.
    """
    if not isinstance(spec, dict):
        raise ValueError(f"a task spec must be a mapping, got {spec!r}")
    if "builtin" in spec:
        _known("builtin task", spec, ("builtin", "params"))
        name, params = spec["builtin"], spec.get("params", {})
        if not isinstance(name, str) or name not in BUILTIN_TASKS:
            raise ValueError(f"unknown builtin task {name!r}")
        build = BUILTIN_TASKS[name]
        if not isinstance(params, dict):
            raise ValueError(f"builtin task params must be a mapping, got {params!r}")
        _known(f"builtin task {name!r} params", params, tuple(inspect.signature(build).parameters))
        for key, value in params.items():
            _finite(f"builtin task param {key!r}", value)
        return build(**params)
    if "inline" in spec:
        _known("inline task", spec, ("inline",))
        return task_from_dict(spec["inline"])
    if "file" in spec:
        _known("file task", spec, ("file",))
        if not isinstance(spec["file"], str):
            raise ValueError(f"a task file must be a path, got {spec['file']!r}")
        text = Path(spec["file"]).read_text()
        return task_from_dict(json.loads(text))
    raise ValueError("task spec needs one of: builtin, inline, file")
