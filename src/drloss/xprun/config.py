"""Experiment configuration: defaults, file loading, and overrides.

Config files are declarative JSON or YAML with the same nested shape as
the built-in defaults.  Overrides are applied in order: built-in defaults,
then the file, then the environment (DRLOSS_SEED and DRLOSS_JOBS only),
then command-line flags.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from ..hypo import (
    AxisRectClass,
    FiniteClass,
    IntervalClass,
    TableHypothesis,
    Threshold,
    ThresholdClass,
)

class ConfigError(ValueError):
    """Bad configuration or input file; maps to exit code 2."""


@dataclass
class ExperimentConfig:
    kind: str
    trials: int
    master_seed: int
    grid: list
    jobs: int = 1
    task: dict | None = None
    hypothesis_class: dict | None = None
    params: dict = field(default_factory=dict)

    def echo(self) -> dict:
        """Deterministic plain-dict form for report embedding."""
        return {
            "kind": self.kind,
            "trials": self.trials,
            "master_seed": self.master_seed,
            "jobs": self.jobs,
            "task": self.task,
            "hypothesis_class": self.hypothesis_class,
            "grid": self.grid,
            "params": self.params,
        }


_THRESH = {"tag": "threshold-1d"}

DEFAULTS: dict = {
    "realizable": {
        "task": {"builtin": "t1"},
        "hypothesis_class": _THRESH,
        "grid": [
            {"n": 10, "m": 10, "epsilon": 0.1, "delta": 0.05, "assert": False},
            {"n": 50, "m": 50, "epsilon": 0.1, "delta": 0.05, "assert": False},
            {"n": 200, "m": 200, "epsilon": 0.1, "delta": 0.05, "assert": True},
        ],
        "trials": 500,
        "master_seed": 20240901,
        "params": {},
    },
    "agnostic": {
        "task": {"builtin": "t1-noise", "params": {"rate": 0.1}},
        "hypothesis_class": _THRESH,
        "grid": [
            {"n": 10, "m": 10, "epsilon": 0.15, "delta": 0.05, "assert": False},
            {"n": 50, "m": 50, "epsilon": 0.15, "delta": 0.05, "assert": False},
            {"n": 200, "m": 200, "epsilon": 0.15, "delta": 0.05, "assert": True},
        ],
        "trials": 500,
        "master_seed": 20240902,
        "params": {},
    },
    "model1": {
        "task": {"builtin": "model1"},
        "hypothesis_class": _THRESH,
        "grid": [{"n": 200, "m": 200, "epsilon": 0.1, "delta": 0.05, "assert": True}],
        "trials": 500,
        "master_seed": 20240903,
        "params": {},
    },
    "model2": {
        "task": {"builtin": "model2"},
        "hypothesis_class": _THRESH,
        "grid": [{"n": 200, "m": 200, "epsilon": 0.1, "delta": 0.05, "assert": True}],
        "trials": 500,
        "master_seed": 20240904,
        "params": {},
    },
    "double-sampling": {
        "task": {"builtin": "near-threshold"},
        "hypothesis_class": _THRESH,
        "grid": [{"n": 2, "m": 3, "epsilon": 0.2, "assert": True}],
        "trials": 20,
        "master_seed": 20240905,
        "params": {"draws": 20000},
    },
    "hoeffding": {
        "task": None,
        "hypothesis_class": None,
        "grid": [
            {"target": "inner", "m": 800, "epsilon": 0.4, "assert": True},
            {"target": "inner", "m": 3200, "epsilon": 0.2, "assert": True},
            {"target": "outer", "n": 200, "epsilon": 0.4, "assert": True},
            {"target": "outer", "n": 800, "epsilon": 0.2, "assert": True},
        ],
        "trials": 10000,
        "master_seed": 20240906,
        "params": {
            "inner_task": {"builtin": "hoeffding-inner"},
            "outer_task": {"builtin": "hoeffding-outer"},
            "outer_m": 1,
            "hypothesis": {"classTag": "threshold-1d", "params": {"t": 0.5}},
        },
    },
    "derand-classifier": {
        "task": None,
        "hypothesis_class": None,
        "grid": [{"eta": 0.25, "delta": 0.05, "assert": True}],
        "trials": 200,
        "master_seed": 20240907,
        "params": {"p_err": 0.2, "a_size": 8, "grid_randomness": 1000},
    },
    "derand-certifier": {
        "task": None,
        "hypothesis_class": None,
        "grid": [{"eta": 0.25, "delta": 0.05, "assert": True}],
        "trials": 200,
        "master_seed": 20240908,
        "params": {"q_in": 0.9, "a_size": 8, "grid_randomness": 1000,
                   "alpha": 0.5, "beta": 0.5},
    },
    "smoothing": {
        "task": {"builtin": "smoothing", "params": {"sigma": 1.0}},
        "hypothesis_class": _THRESH,
        "grid": [
            {"delta": 0.0, "assert": True},
            {"delta": 0.25, "assert": True},
            {"delta": 0.5, "assert": True},
        ],
        "trials": 3,
        "master_seed": 20240909,
        "params": {"sigma": 1.0, "n": 100, "m": 100, "shift_points": 21, "mc_slack": 0.01},
    },
}


KINDS = tuple(DEFAULTS)


def _read_config_file(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    text = p.read_text()
    try:
        if p.suffix in (".yaml", ".yml"):
            data = yaml.safe_load(text)
        else:
            data = json.loads(text)
    except Exception as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return data


def _check_number(name: str, value, integer: bool = False) -> None:
    """Reject a config value that is not a number (an integer if ``integer``)."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not ok or (integer and not float(value).is_integer()):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{name} must be {kind}, got {value!r}")


def positive_int(name: str, value) -> int:
    """``value`` as an int; anything but an integral number >= 1 is a config error."""
    _check_number(name, value, integer=True)
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value!r}")
    return int(value)


def positive_number(name: str, value) -> float:
    """``value`` as a float; anything but a number > 0 is a config error."""
    _check_number(name, value)
    if not value > 0:
        raise ConfigError(f"{name} must be > 0, got {value!r}")
    return float(value)


def probability(name: str, value) -> float:
    """``value`` as a float; anything but a number in [0, 1] is a config error."""
    _check_number(name, value)
    if not 0 <= value <= 1:
        raise ConfigError(f"{name} must be in [0, 1], got {value!r}")
    return float(value)


def _validate_grid(kind: str, grid: list) -> None:
    if not isinstance(grid, list) or not grid:
        raise ConfigError("grid must be a nonempty list")
    for entry in grid:
        if not isinstance(entry, dict):
            raise ConfigError("grid entries must be mappings")
        for key in ("n", "m"):
            if key in entry:
                positive_int(key, entry[key])
        for key in ("epsilon", "delta", "eta"):
            if key in entry:
                _check_number(key, entry[key])
        eps = entry.get("epsilon")
        if eps is not None and eps <= 0:
            raise ConfigError(f"epsilon must be positive, got {eps}")
        delta = entry.get("delta")
        if kind == "smoothing":
            # the smoothing grid's delta is a shift radius, not a confidence level
            if delta is not None and delta < 0:
                raise ConfigError(f"shift radius must be nonnegative, got {delta}")
        elif delta is not None and not 0 < delta < 1:
            raise ConfigError(f"delta must be in (0,1), got {delta}")
        eta = entry.get("eta")
        if eta is not None and not 0 < eta < 0.5:
            raise ConfigError(f"eta must be in (0,1/2), got {eta}")


def _int_at_least(name: str, value, low: int) -> int:
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}") from None
    if number < low:
        raise ConfigError(f"{name} must be >= {low}, got {number}")
    return number


def load_config(kind: str, path: str | None = None, seed: int | None = None,
                jobs: int | None = None, env: dict | None = None) -> ExperimentConfig:
    """Merge defaults, optional file, environment, and CLI overrides."""
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    merged = copy.deepcopy(DEFAULTS[kind])
    merged.setdefault("jobs", 1)
    if path is not None:
        data = _read_config_file(path)
        file_kind = data.pop("kind", kind)
        if file_kind != kind:
            raise ConfigError(f"config kind {file_kind!r} does not match subcommand {kind!r}")
        for key, value in data.items():
            if key == "params":
                if not isinstance(value, dict):
                    raise ConfigError(f"params must be a mapping, got {value!r}")
                merged["params"].update(value)
            else:
                merged[key] = value
    env = os.environ if env is None else env
    if env.get("DRLOSS_SEED"):
        merged["master_seed"] = env["DRLOSS_SEED"]
    if env.get("DRLOSS_JOBS"):
        merged["jobs"] = env["DRLOSS_JOBS"]
    if seed is not None:
        merged["master_seed"] = seed
    if jobs is not None:
        merged["jobs"] = jobs

    trials = _int_at_least("trials", merged.get("trials", 0), 1)
    master_seed = _int_at_least("master seed", merged["master_seed"], 0)
    jobs = _int_at_least("jobs", merged["jobs"], 1)
    for key in ("task", "hypothesis_class"):
        if not isinstance(merged.get(key), (dict, type(None))):
            raise ConfigError(f"{key} must be a mapping, got {merged[key]!r}")
    _validate_grid(kind, merged["grid"])
    return ExperimentConfig(
        kind=kind,
        trials=trials,
        master_seed=master_seed,
        grid=merged["grid"],
        jobs=jobs,
        task=merged.get("task"),
        hypothesis_class=merged.get("hypothesis_class"),
        params=merged.get("params", {}),
    )


def build_hypothesis_class(spec: dict):
    """Instantiate a hypothesis class from its config form."""
    if spec is None:
        raise ConfigError("missing hypothesis_class")
    tag = spec.get("tag")
    if tag == "threshold-1d":
        return ThresholdClass()
    if tag == "interval-1d":
        return IntervalClass()
    if tag == "axis-rect-d":
        return AxisRectClass(int(spec.get("dim", 2)))
    if tag == "finite-table":
        tables = spec.get("tables")
        if not tables:
            raise ConfigError("finite-table class needs a 'tables' list")
        hyps = []
        for table in tables:
            hyps.append(TableHypothesis({
                (tuple(x) if isinstance(x, list) else float(x)): int(y) for x, y in table
            }))
        return FiniteClass(hyps)
    raise ConfigError(f"unknown hypothesis class tag {tag!r}")


def build_hypothesis(spec: dict):
    """Instantiate a single hypothesis from its serialized {classTag, params} form."""
    tag = spec.get("classTag")
    params = spec.get("params", {})
    if tag == "threshold-1d":
        return Threshold(float(params["t"]))
    if tag == "finite-table":
        return TableHypothesis({
            (tuple(x) if isinstance(x, list) else float(x)): int(y)
            for x, y in params["table"]
        })
    raise ConfigError(f"unsupported hypothesis spec {tag!r}")
