"""Output checks for one operation's report.

A report passes when its verdict agrees with the exit code and with its
assertions, every ERM row's ``loss_pop`` equals the exact population loss
of its ``hypothesis``, and sampled ``derand-classifier`` rows reproduce
``dr_value`` from their fixed draws.  The draws come from
``decode_seeds(seeds_hex)``; reports over the suite's seed-dump limit (the
default config among them) leave ``seeds_hex`` empty, and then the draws
are made again from the row's stream address ``seed_ref``.  At the default
seeds the report bytes must also match the golden SHA-256 recorded at the
seed commit (``goldens.json``).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from drloss import seeding
from drloss.derand import (DerandClassifier, decode_seeds, derandomize_classifier,
                           evaluate_derand_dr)
from drloss.hypo import AxisRect, Interval, Threshold
from drloss.loss import population_dr_loss_exact
from drloss.tasks import build_task, derand_classifier_setup
from drloss.xprun import read_csv_sections

ERM_KINDS = ("realizable", "agnostic", "model1", "model2")
DERAND_ROWS_CHECKED = 2   # evaluate_derand_dr takes about 0.03 s a row at the default size

GOLDENS = json.loads((Path(__file__).parent / "goldens.json").read_text())


def _hypothesis(spec: dict):
    params = spec["params"]
    tag = spec["classTag"]
    if tag == "threshold-1d":
        return Threshold(float(params["t"]))
    if tag == "interval-1d":
        return Interval(float(params["lo"]), float(params["hi"]))
    if tag == "axis-rect-d":
        return AxisRect(tuple(params["lows"]), tuple(params["highs"]))
    raise ValueError(f"no oracle for hypothesis class {tag!r}")


def _sections(path: str, fmt: str) -> tuple:
    """(config echo, rows, assertion verdicts, report verdict) in either format."""
    if fmt == "json":
        doc = json.loads(Path(path).read_text())
        return (doc["config"], doc["rows"], [a["passed"] for a in doc["assertions"]], doc["passed"])
    sec = read_csv_sections(path)
    lines = Path(path).read_text().splitlines()
    config = json.loads(lines[1].removeprefix("# config: "))
    passed = lines[-1] == "# passed=1"
    return config, sec["rows"], [a["passed"] == "1" for a in sec["assertions"]], passed


def check_report(kind: str, path: str, fmt: str, exit_code: int, seed: int) -> list:
    """Problems found in the report at ``path``; an empty list means it passed."""
    config, rows, verdicts, passed = _sections(path, fmt)
    problems = []
    if exit_code != (0 if passed else 1):
        problems.append(f"exit code {exit_code} but report passed={passed}")
    if passed != all(verdicts):
        problems.append("report verdict disagrees with its assertions")
    if not rows:
        problems.append("report has no rows")
    if kind in ERM_KINDS:
        task = build_task(config["task"])
        oracle: dict = {}
        for row in rows:
            spec = row["hypothesis"]
            key = spec if isinstance(spec, str) else json.dumps(spec, sort_keys=True)
            if key not in oracle:
                oracle[key] = population_dr_loss_exact(_hypothesis(json.loads(key)), task, "true")
            if float(row["loss_pop"]) != oracle[key]:
                problems.append(f"trial {row['trial']}: loss_pop {row['loss_pop']} "
                                f"!= exact {oracle[key]!r}")
                break
    if kind == "derand-classifier":
        params = config["params"]
        setup = derand_classifier_setup(
            p_err=float(params.get("p_err", 0.2)), a_size=int(params.get("a_size", 8)),
            grid=int(params.get("grid_randomness", 1000)), p_err_high=params.get("p_err_high"))
        for row in random.Random(seed).sample(rows, min(DERAND_ROWS_CHECKED, len(rows))):
            if row["seeds_hex"]:
                det = DerandClassifier(setup.base, decode_seeds(row["seeds_hex"].split(";")))
            else:
                address = row["seed_ref"].removeprefix("philox[").removesuffix("]").split("/")
                rng = seeding.stream(*(int(a) for a in address))
                det = derandomize_classifier(setup.base, int(row["t_votes"]), rng)
            exact = evaluate_derand_dr(det, setup.attack_task)
            if float(row["dr_value"]) != exact:
                problems.append(f"trial {row['trial']}: dr_value {row['dr_value']} != exact {exact!r}")
    return problems


def check_golden(label: str, seed: int, digest: str) -> list:
    golden = GOLDENS[label]
    if seed != golden["seed"]:
        return []
    if digest != golden["sha256"]:
        return [f"{label}: sha256 {digest} != golden {golden['sha256']}"]
    return []
