"""The benchmark's tracer patches drloss callables by the names its callers use.

``perfbench/tracer.py`` replaces each one with a spanning wrapper and puts
the original back afterwards.  Installing it here, against this source
tree, makes a deleted or renamed callable fail the test suite instead of a
traced benchmark run.
"""

import importlib.util
from pathlib import Path

import drloss.seeding as seeding


def load_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_and_restore_against_src():
    tracer_module = load_tracer()
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        patches = list(tracer._patches)
        seeding.stream(1, 0)
    finally:
        tracer.restore()
    assert [span[0] for span in tracer.spans] == ["seeding.stream"]
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original
