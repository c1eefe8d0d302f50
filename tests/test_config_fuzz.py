"""The CLI's exit contract on fuzzed configs.

``drloss`` exits 0 when every assertion passes, 1 when a statistical
assertion fails and 2 on a config or I/O error.  An exception it let
through would also exit 1, through Python's default handler, and read as
a failed theorem.  Each example starts from one kind's ``DEFAULTS`` with
its sizes made tiny, then replaces one to three of the values that
``config.SCHEMA`` names with values from a pool, and runs ``cli.main`` on
the result as a JSON config file.

Sizes the config does not bound yet (``trials``, ``n``, ``m``, ``draws``,
``outer_m``, ``shift_points``) only ever get tiny values.  Huge values go
only to the keys whose size is checked before anything of that size is
built (the vote count ``t``, ``a_size``, ``grid_randomness``), and
underflowing ones only to ``eta``.  ``jobs`` stays 1.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drloss.cli import main
from drloss.tasks import BUILTIN_TASKS
from drloss.xprun.config import DEFAULTS, KINDS, SCHEMA
from drloss.xprun.suites import VOTE_WORDS_MAX

SIZES = ("trials", "n", "m", "draws", "outer_m", "shift_points")
# values of the wrong type or range, which every key may get
INVALID = [None, "x", [], {}, -1, float("nan"), float("inf")]
# per key, values of roughly the right kind (a task may not suit its suite)
VALID = {
    **{key: [1, 2, 3] for key in SIZES},
    **{key: [{"builtin": name} for name in BUILTIN_TASKS] + [{"builtin": "no-such-task"}]
       for key in ("task", "inner_task", "outer_task")},
    "hypothesis_class": [{"tag": "threshold-1d"}, {"tag": "interval-1d"},
                         {"tag": "axis-rect-d", "dim": 2}, {"tag": "finite-table"}],
    "hypothesis": [{"classTag": "threshold-1d", "params": {"t": 2.5}}, {"classTag": "nope"}],
    "master_seed": [0, 1, 2 ** 40],
    "epsilon": [0.05, 0.3, 2.0],
    "delta": [0.05, 0.5, 0.95, 1.0],
    "eta": [0.0575, 0.25, 0.4999, 1e-200, 1e-160],
    "t": [0, 1, 2, 30, 31, 1e300, VOTE_WORDS_MAX + 1],
    "a_size": [1, 3, 1e300, (1 << 16) + 1],
    "grid_randomness": [1, 2, 7, 9, 1e300, (1 << 20) + 1],
    "target": ["inner", "outer", "sideways"],
}
OTHER = [True, False, 0, 0.05, 0.2499, 0.5, 1, 2.5]


def tiny(kind: str) -> dict:
    """``DEFAULTS[kind]`` with every size at most 3."""
    cfg = copy.deepcopy(DEFAULTS[kind])
    cfg["trials"] = 2
    for entry in cfg["grid"]:
        entry.update({key: 3 for key in ("n", "m") if key in entry})
    cfg["params"].update({key: 3 for key in ("draws", "n", "m") if key in cfg["params"]})
    return cfg


def places(kind: str) -> list:
    """Every (section, grid index, key) a mutation may set."""
    schema = SCHEMA[kind]
    grid_keys = set(schema.optional)
    for keys in (schema.grid.values() if schema.by_target else [schema.grid]):
        grid_keys |= set(keys)
    if schema.by_target:
        grid_keys.add("target")
    out = [("top", None, key) for key in ("trials", "master_seed", "task", "hypothesis_class")]
    out += [("params", None, key) for key in sorted(schema.params)]
    out += [("grid", g, key) for g in range(len(DEFAULTS[kind]["grid"]))
            for key in sorted(grid_keys)]
    return out


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(KINDS))
    cfg = tiny(kind)
    for section, g, key in draw(st.lists(st.sampled_from(places(kind)), min_size=1, max_size=3)):
        value = copy.deepcopy(draw(st.one_of(st.sampled_from(VALID.get(key, OTHER)),
                                             st.sampled_from(INVALID))))
        where = cfg if section == "top" else cfg["params"] if section == "params" else cfg["grid"][g]
        where[key] = value
    return kind, cfg


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(configs())
def test_cli_keeps_its_exit_contract(case):
    kind, cfg = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([kind, "--config", str(path)])
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), (code, lines)
    if code == 2:
        assert any(line.startswith(("config error: ", "io error: ")) for line in lines), lines
    if code == 1:
        assert lines and lines[-1].startswith(f"FAIL {kind}:"), lines
    if code == 0:
        assert lines and lines[-1].startswith(f"PASS {kind}:"), lines
