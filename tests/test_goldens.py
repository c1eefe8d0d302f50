"""Every default report is byte-identical to its recorded SHA-256.

``perfbench/goldens.json`` holds the digests of the nine default suites'
CSV and JSON reports at their default seeds; it is read, never written.
"""

import hashlib
import json
from pathlib import Path

import pytest

from drloss.xprun import KINDS, load_config, render_csv, render_json, run_suite

GOLDENS = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json").read_text())


@pytest.mark.parametrize("kind", KINDS)
def test_default_report_matches_golden(kind):
    seed = GOLDENS[f"{kind}.csv"]["seed"]
    assert GOLDENS[f"{kind}.json"]["seed"] == seed
    report = run_suite(load_config(kind, seed=seed, jobs=1))
    for fmt, render in (("csv", render_csv), ("json", render_json)):
        digest = hashlib.sha256(render(report).encode()).hexdigest()
        assert digest == GOLDENS[f"{kind}.{fmt}"]["sha256"], f"{kind}.{fmt}"
