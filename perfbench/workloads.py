"""Workload inputs: which suite invocations one pass makes, and their configs.

Every workload is a fixed list of operations.  One operation is one call of
``drloss.cli.main([kind, --config, --seed, --out, --format, --jobs 1])``.
The configs are generated here, never taken from the program; the workload
seed reaches the program only as ``--seed``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

KINDS = ("realizable", "agnostic", "model1", "model2", "double-sampling",
         "hoeffding", "derand-classifier", "derand-certifier", "smoothing")

# erm-ladder: (class config, domain, trials).  Trials are sized so each
# operation takes about one second and the threshold point peaks near
# 270 MiB on the seed commit.
LADDER = (
    ({"tag": "threshold-1d"}, ("line", 128), 32),
    ({"tag": "interval-1d"}, ("line", 24), 64),
    ({"tag": "axis-rect-d", "dim": 2}, ("grid", 4), 64),
)
LADDER_GRID = [{"n": 50, "m": 50, "epsilon": 0.1, "delta": 0.05, "assert": True}]

MANY_SLOTS_TRIALS = 60

# The known memory defect: interval-1d at D = 64 with the ROADMAP's 256
# trials asks FiniteView.dr_s for a (2081, 12800, 64) float64 array.
PROBE = ({"tag": "interval-1d"}, ("line", 64), 256)


@dataclass(frozen=True)
class Op:
    """One suite invocation of a workload pass."""

    kind: str
    config: str | None   # config path, or None for the built-in defaults
    fmt: str
    label: str

    def argv(self, seed: int, out: str) -> list:
        args = [self.kind]
        if self.config is not None:
            args += ["--config", self.config]
        return args + ["--seed", str(seed), "--out", out, "--format", self.fmt, "--jobs", "1"]


def two_atom_task(domain: tuple) -> dict:
    """Realizable two-atom task over evenly spaced points, as an inline config.

    ``("line", D)`` is the points 0..D-1; ``("grid", s)`` is the s x s
    integer grid, split along the first axis.  The negative atom sits at the
    low end and the positive atom at the high end.  Each atom has a
    point-mass member and a uniform member over its half of the domain, so
    a threshold, an interval or a box labels every member point correctly.
    """
    shape, size = domain
    if shape == "line":
        points = [float(i) for i in range(size)]
        low = points[: size // 2]
    else:
        points = [[float(i), float(j)] for i in range(size) for j in range(size)]
        low = [p for p in points if p[0] < size // 2]
    high = [p for p in points if p not in low]
    neg, pos = points[0], points[-1]
    return {"inline": {
        "atoms": [[neg, -1, 0.5], [pos, 1, 0.5]],
        "distributions": {
            "neg_point": [[neg, 1.0]],
            "neg_half": [[p, 1.0 / len(low)] for p in low],
            "pos_point": [[pos, 1.0]],
            "pos_half": [[p, 1.0 / len(high)] for p in high],
        },
        "families": [
            {"x": neg, "true": ["neg_point", "neg_half"], "k": 2},
            {"x": pos, "true": ["pos_point", "pos_half"], "k": 2},
        ],
    }}


def ladder_config(hclass: dict, domain: tuple, trials: int) -> dict:
    return {"kind": "realizable", "task": two_atom_task(domain), "hypothesis_class": hclass,
            "grid": LADDER_GRID, "trials": trials}


def _write(path: Path, cfg: dict) -> str:
    path.write_text(json.dumps(cfg, indent=1, sort_keys=True) + "\n")
    return str(path)


def build(workload: str, workdir: Path) -> list:
    """Write the workload's configs under ``workdir`` and return its operations."""
    if workload == "suite-defaults":
        return [Op(kind, None, "csv", kind) for kind in KINDS]
    if workload == "erm-ladder":
        ops = []
        for hclass, domain, trials in LADDER:
            label = f"{hclass['tag']}-{domain[0]}{domain[1]}"
            path = _write(workdir / f"ladder-{label}.json", ladder_config(hclass, domain, trials))
            ops.append(Op("realizable", path, "csv", label))
        return ops
    if workload == "many-slots":
        cfg = {"kind": "double-sampling", "trials": MANY_SLOTS_TRIALS}
        path = _write(workdir / "many-slots.json", cfg)
        return [Op("double-sampling", path, "csv", "double-sampling")]
    raise ValueError(f"unknown workload {workload!r}")


def golden_ops() -> list:
    """The nine default suites in both formats; they run at their default seeds."""
    return [Op(kind, None, fmt, kind) for kind in KINDS for fmt in ("csv", "json")]


WORKLOADS = ("suite-defaults", "erm-ladder", "many-slots")
