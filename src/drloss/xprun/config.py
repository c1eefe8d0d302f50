"""Experiment configuration: defaults, the per-suite schema, file loading, and overrides.

Config files are declarative JSON or YAML with the same nested shape as
the built-in defaults.  Overrides are applied in order: built-in defaults,
then the file, then command-line flags.  ``SCHEMA`` names every key a
suite reads, with its checker; ``check`` applies it once, before any
setup runs.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

from ..hypo import (
    AxisRectClass,
    FiniteClass,
    IntervalClass,
    Threshold,
    ThresholdClass,
)
from ..tasks import is_number, table_from_json


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


# Checkers: each takes (name, value) and returns the checked value, or
# raises ConfigError naming the key.

def _numeric(text: str, ok, integer: bool = False):
    """A checker for a finite number (an integral one if ``integer``) for which ``ok`` holds."""
    kind = "an integer" if integer else "a finite number"

    def check(name: str, value):
        # nan, inf and numbers past float range fail the comparison
        if not is_number(value) or not abs(value) < 2 ** 1023 or integer and value % 1:
            raise ConfigError(f"{name} must be {kind}, got {value!r}")
        if not ok(value):
            raise ConfigError(f"{name} must be {text}, got {value!r}")
        return int(value) if integer else float(value)
    return check


positive_int = _numeric(">= 1", lambda v: v >= 1, integer=True)
count = _numeric(">= 0", lambda v: v >= 0, integer=True)
number = _numeric("a number", lambda v: True)
positive_number = _numeric("> 0", lambda v: v > 0)
nonnegative = _numeric(">= 0", lambda v: v >= 0)
probability = _numeric("in [0, 1]", lambda v: 0 <= v <= 1)
open_unit = _numeric("in (0, 1)", lambda v: 0 < v < 1)
below_half = _numeric("in (0, 1/2)", lambda v: 0 < v < 0.5)


def flag(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def true_only(name: str, value) -> bool:
    if value is not True:
        raise ConfigError(f"{name} must be true, got {value!r}")
    return value


def mapping(name: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a mapping, got {value!r}")
    return value


def optional(check):
    """``check``, letting null through as None."""
    return lambda name, value: None if value is None else check(name, value)


def _known(where: str, given: dict, allowed) -> None:
    """Reject the keys of ``given`` that ``allowed`` does not name."""
    unknown = [repr(key) for key in given if key not in allowed]
    if unknown:
        raise ConfigError(f"unknown {where} key {', '.join(unknown)}; "
                          f"expected {', '.join(allowed) or 'none'}")


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


class Schema(NamedTuple):
    """One suite's config keys, each with its checker."""

    params: dict            # param -> checker; defaults in DEFAULTS, else None
    grid: dict              # required grid key -> checker; by target: target -> such a dict
    optional: dict          # optional grid key -> (checker, default)
    by_target: bool = False  # each grid entry's "target" picks its required keys


_ERM_GRID = {"n": positive_int, "m": positive_int, "epsilon": positive_number}
_ERM_OPTIONAL = {"delta": (open_unit, 0.05), "exact_inner": (flag, False),
                 "assert": (flag, False)}
_ASSERT = {"assert": (flag, True)}
_COVER = {"cover_k": optional(positive_int)}
_DERAND_GRID = {"eta": below_half, "delta": open_unit}
# t null or 0: the vote count the guarantee requires
_DERAND_OPTIONAL = {"t": (optional(count), None), **_ASSERT}
# sizes a derand setup builds before any trial (at both bounds, about 1.5 s and 200 MiB)
_ATTACKS = {"a_size": _numeric("in [1, 2**16]", lambda v: 1 <= v <= 1 << 16, integer=True),
            "grid_randomness": _numeric("in [1, 2**20]", lambda v: 1 <= v <= 1 << 20,
                                        integer=True)}

SCHEMA = {
    "realizable": Schema({}, _ERM_GRID, _ERM_OPTIONAL),
    "agnostic": Schema({}, _ERM_GRID, _ERM_OPTIONAL),
    "model1": Schema(_COVER, _ERM_GRID, _ERM_OPTIONAL),
    "model2": Schema(_COVER, _ERM_GRID, _ERM_OPTIONAL),
    "double-sampling": Schema({"draws": positive_int}, _ERM_GRID, {"assert": (true_only, True)}),
    "hoeffding": Schema(
        {"inner_task": mapping, "outer_task": mapping, "outer_m": positive_int,
         "hypothesis": mapping},
        {"inner": {"m": positive_int, "epsilon": positive_number},
         "outer": {"n": positive_int, "epsilon": positive_number}},
        _ASSERT, by_target=True),
    "derand-classifier": Schema(
        {"p_err": probability, "p_err_high": optional(probability), **_ATTACKS},
        _DERAND_GRID, _DERAND_OPTIONAL),
    "derand-certifier": Schema(
        {"q_in": probability, **_ATTACKS, "alpha": positive_number, "beta": positive_number},
        _DERAND_GRID, _DERAND_OPTIONAL),
    # the smoothing grid's delta is a shift radius, not a confidence level
    "smoothing": Schema(
        {"sigma": positive_number, "n": positive_int, "m": positive_int,
         "shift_points": positive_int, "mc_slack": number},
        {"delta": nonnegative}, _ASSERT),
}

_TOP = {"trials": positive_int, "master_seed": count, "jobs": positive_int,
        "task": optional(mapping), "hypothesis_class": optional(mapping), "params": mapping}


def _read_config_file(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    text = p.read_text()
    try:
        if p.suffix in (".yaml", ".yml"):
            import yaml  # only YAML configs pay its import

            data = yaml.safe_load(text)
        else:
            data = json.loads(text)
    except Exception as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")
    return data


def _check_entry(kind: str, schema: Schema, g: int, entry) -> dict:
    if not isinstance(entry, dict):
        raise ConfigError("grid entries must be mappings")
    required, checked = schema.grid, {}
    if schema.by_target:
        target = entry.get("target")
        if not isinstance(target, str) or target not in required:
            raise ConfigError(f"{kind} target must be one of "
                              f"{', '.join(required)}, got {target!r}")
        required, checked["target"] = required[target], target
    _known(f"{kind} grid entry {g}", entry, [*checked, *required, *schema.optional])
    for key, rule in required.items():  # a missing key reaches its rule as None
        checked[key] = rule(f"grid[{g}].{key}", entry.get(key))
    for key, (rule, default) in schema.optional.items():
        checked[key] = rule(f"grid[{g}].{key}", entry.get(key, default))
    return checked


def check(cfg: dict) -> ExperimentConfig:
    """A checked copy of ``cfg``, a mapping of ``ExperimentConfig``'s fields.

    Unknown keys (at the top level, in ``params`` and in each grid entry) and
    values of the wrong type or range are config errors.  The copy fills in
    the suite's param defaults and each entry's optional keys; it shares the
    task and hypothesis specs, which nothing modifies.
    """
    _known("top-level", cfg, ("kind", "grid", *_TOP))
    kind, grid = cfg.get("kind"), cfg.get("grid")
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    if not isinstance(grid, list) or not grid:
        raise ConfigError("grid must be a nonempty list")
    top = {key: rule(key.replace("_", " "), cfg.get(key)) for key, rule in _TOP.items()}
    schema = SCHEMA[kind]
    for key in ("task", "hypothesis_class"):
        if (top[key] is None) != (DEFAULTS[kind][key] is None):
            raise ConfigError(f"{kind} {'needs' if top[key] is None else 'reads no'} {key}")
    params = {**DEFAULTS[kind]["params"], **top["params"]}
    _known(f"{kind} params", params, schema.params)
    top["params"] = {key: rule(f"params.{key}", params.get(key))
                     for key, rule in schema.params.items()}
    grid = [_check_entry(kind, schema, g, entry) for g, entry in enumerate(grid)]
    return ExperimentConfig(kind=kind, grid=grid, **top)


def load_config(kind: str, path: str | None = None, seed: int | None = None,
                jobs: int | None = None) -> ExperimentConfig:
    """Merge defaults, optional file, and CLI overrides, and check them.

    The grid, params and specs stay as written: reports echo them, and
    ``run_suite`` checks them again.
    """
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    merged = copy.deepcopy(DEFAULTS[kind])
    merged["jobs"] = 1
    if path is not None:
        data = _read_config_file(path)
        file_kind = data.pop("kind", kind)
        if file_kind != kind:
            raise ConfigError(f"config kind {file_kind!r} does not match subcommand {kind!r}")
        for key, value in data.items():
            if key == "params" and isinstance(value, dict):
                merged["params"].update(value)
            else:
                merged[key] = value
    if seed is not None:
        merged["master_seed"] = seed
    if jobs is not None:
        merged["jobs"] = jobs
    checked = check(dict(merged, kind=kind))
    return replace(checked, grid=merged["grid"], task=merged["task"],
                   hypothesis_class=merged["hypothesis_class"], params=merged["params"])


def build_hypothesis_class(spec: dict):
    """Instantiate a hypothesis class from its config form."""
    tag = spec.get("tag")
    if tag == "axis-rect-d":
        _known("axis-rect-d class", spec, ("tag", "dim"))
        return AxisRectClass(positive_int("dim", spec.get("dim", 2)))
    if tag == "finite-table":
        _known("finite-table class", spec, ("tag", "tables"))
        tables = spec.get("tables")
        if not isinstance(tables, list) or not tables:
            raise ConfigError("finite-table class needs a nonempty 'tables' list")
        return FiniteClass([table_from_json(table) for table in tables])
    if tag in ("threshold-1d", "interval-1d"):
        _known(f"{tag} class", spec, ("tag",))
        return ThresholdClass() if tag == "threshold-1d" else IntervalClass()
    raise ConfigError(f"unknown hypothesis class tag {tag!r}")


def build_hypothesis(spec: dict):
    """Instantiate a single hypothesis from its serialized {classTag, params} form."""
    _known("hypothesis", spec, ("classTag", "params"))
    tag = spec.get("classTag")
    params = mapping("hypothesis params", spec.get("params", {}))
    if tag == "threshold-1d":
        _known("threshold-1d hypothesis params", params, ("t",))
        return Threshold(number("t", params.get("t")))
    if tag == "finite-table":
        _known("finite-table hypothesis params", params, ("table",))
        return table_from_json(params.get("table"))
    raise ConfigError(f"unsupported hypothesis spec {tag!r}")
