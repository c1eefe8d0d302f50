"""Seeded generators, random finite tasks and table hypotheses for the tests."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from drloss.hypo import TableHypothesis
from drloss.loss import TaskInstance
from drloss.perturb import DistributionFamily, FiniteDistribution


def load_workloads():
    """perfbench's ``workloads`` module, whose configs the ladder tests build."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)  # dataclasses look their module up in sys.modules
    return module


def rng_for(seed: int) -> np.random.Generator:
    """A Philox generator seeded with ``seed``."""
    return np.random.Generator(np.random.Philox(seed))


def random_finite_task(rng: np.random.Generator, max_points: int = 6,
                       max_k: int = 3, grid: int = 20) -> TaskInstance:
    """A random small discrete task with grid-valued probabilities.

    Every atom and member probability is a multiple of 1/grid, so supports
    stay small and losses take few distinct values; with a power-of-two
    grid every loss is an exact floating-point sum.
    """
    n_points = int(rng.integers(2, max_points + 1))
    points = [float(i) for i in range(n_points)]
    n_atoms = int(rng.integers(1, n_points + 1))
    atom_idx = sorted(rng.choice(n_points, size=n_atoms, replace=False).tolist())
    labels = [int(v) for v in rng.choice([-1, 1], size=n_atoms)]
    weights = rng.multinomial(grid - n_atoms, [1.0 / n_atoms] * n_atoms) + 1
    data = FiniteDistribution(
        [(points[i], y) for i, y in zip(atom_idx, labels)],
        [w / grid for w in weights],
    )
    families = {}
    for i in atom_idx:
        k = int(rng.integers(1, max_k + 1))
        members = []
        for _ in range(k):
            counts = rng.multinomial(grid, [1.0 / n_points] * n_points)
            support = [points[d] for d in range(n_points) if counts[d] > 0]
            probs = [counts[d] / grid for d in range(n_points) if counts[d] > 0]
            members.append(FiniteDistribution(support, probs))
        families[points[i]] = DistributionFamily(members, k=k)
    return TaskInstance(data, families)


def random_table_hypothesis(rng: np.random.Generator, points) -> TableHypothesis:
    return TableHypothesis({p: int(v) for p, v in zip(points, rng.choice([-1, 1], size=len(points)))})
