"""In-memory span recorder that wraps drloss callables from the outside.

Each wrapped call records one span: a name, a start, an end, the span that
was open when it began (its parent) and a few counts taken from its
arguments and result.  Spans stay in memory until the run ends and are
written out once.  Nothing inside ``src/`` is edited: callables are
replaced under the name their caller looks them up by, and restored
afterwards.  The run is single-threaded (``--jobs 1``), so one stack of open
spans is enough to know every span's parent.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

START, END, PARENT = 1, 2, 3


class Tracer:
    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index or -1, attrs]
        self._stack: list = []
        self._patches: list = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield attrs
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper.

        ``counts(args, kwargs, result)`` returns the span's count attributes.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as attrs:
                result = original(*args, **kwargs)
                if counts is not None:
                    attrs.update(counts(args, kwargs, result))
                return result

        traced.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> list:
        """Each span's duration minus the time its direct children cover.

        Children of one span run one after another on the same thread, so
        the time they cover is the sum of their durations.
        """
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def write_jsonl(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "self_s": selfs[i],
                                     "attrs": attrs}, sort_keys=True) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every drloss layer the workloads reach, under its caller's name."""
    import drloss.cli as cli
    import drloss.learner as learner
    import drloss.seeding as seeding
    import drloss.xprun.report as report
    import drloss.xprun.suites as suites
    from drloss.hypo import AxisRectClass, FiniteClass, IntervalClass, ThresholdClass
    from drloss.xprun.indexed import FiniteView

    # the CLI resolves these by name in its own module
    tracer.wrap(cli, "load_config", "xprun.config.load")
    tracer.wrap(cli, "run_suite", "xprun.suites")
    # emit_report looks its renderers up in report.py's globals
    for fn in ("render_csv", "render_json"):
        tracer.wrap(report, fn, "xprun.report.render",
                    lambda a, k, r: {"rows": len(a[0].rows), "bytes": len(r.encode())})

    # suites.py imported these by name; patching their home module would miss them
    tracer.wrap(suites, "build_task", "tasks.build",
                lambda a, k, r: {"key": json.dumps(a[0], sort_keys=True)})
    for fn in ("derand_classifier_setup", "derand_certifier_setup"):
        tracer.wrap(suites, fn, "tasks.build",
                    lambda a, k, r, fn=fn: {"key": fn + json.dumps([a, k], sort_keys=True)})
    tracer.wrap(suites, "sample", "perturb.sample", lambda a, k, r: {"values": int(a[1])})
    tracer.wrap(learner, "sample", "perturb.sample", lambda a, k, r: {"values": int(a[1])})
    tracer.wrap(suites, "encode_seeds", "derand.encode", lambda a, k, r: {"values": len(r)})
    tracer.wrap(suites, "draw_training_set", "learner.draw")
    tracer.wrap(suites, "drerm", "learner.drerm")
    # suites.py calls seeding.stream through the module object
    tracer.wrap(seeding, "stream", "seeding.stream")

    # methods resolve on the class at call time
    tracer.wrap(FiniteView, "__init__", "xprun.indexed.view_build")
    tracer.wrap(FiniteView, "behaviors", "xprun.indexed.behaviors")
    tracer.wrap(FiniteView, "dr_exact", "xprun.indexed.dr_exact")
    tracer.wrap(FiniteView, "draw_clean_slots", "xprun.indexed.draw")
    tracer.wrap(FiniteView, "draw_slot_counts", "xprun.indexed.draw",
                lambda a, k, r: {"slots": len(a[2])})
    tracer.wrap(FiniteView, "dr_s", "xprun.indexed.dr_s",
                lambda a, k, r: {"B": int(a[1].shape[0]), "slots": len(a[2]), "D": int(a[3].shape[-1])})
    tracer.wrap(FiniteView, "erm_on_sample", "xprun.indexed.erm")
    for cls in (ThresholdClass, IntervalClass, AxisRectClass, FiniteClass):
        tracer.wrap(cls, "enumerate_behaviors", "hypo.enumerate",
                    lambda a, k, r: {"points": len(a[1]), "behaviors": len(r)})


def summarize(spans: list, selfs: list, lo: int, hi: int, trials: int) -> dict:
    """Per-layer metrics of the spans ``lo:hi`` (one pass), keyed by metric name.

    ``trials`` is the number of trials the pass's operations ran, the base
    of ``hypo.enumerations_per_trial``.
    """
    dur: dict = {}
    calls: dict = {}
    attr_sum: dict = {}
    suite_self = root_self = root_total = 0.0
    build_keys = set()
    shape_max = (0, 0, 0)
    for i in range(lo, hi):
        name, start, end, parent, attrs = spans[i]
        dur[name] = dur.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        for key, value in attrs.items():
            if isinstance(value, int):
                attr_sum[(name, key)] = attr_sum.get((name, key), 0) + value
        if name == "op":
            root_self += selfs[i]
            root_total += end - start
        elif name == "xprun.suites":
            suite_self += selfs[i]
        elif name == "tasks.build":
            op = parent
            while spans[op][0] != "op":
                op = spans[op][PARENT]
            build_keys.add((op, attrs["key"]))
        elif name == "xprun.indexed.dr_s":
            shape = (attrs["B"], attrs["slots"], attrs["D"])
            if shape[0] * shape[1] * shape[2] > shape_max[0] * shape_max[1] * shape_max[2]:
                shape_max = shape
    elements = shape_max[0] * shape_max[1] * shape_max[2]
    builds = calls.get("tasks.build", 0)
    return {
        "hypo.enumerate_calls": calls.get("hypo.enumerate", 0),
        "hypo.enumerate_s": dur.get("hypo.enumerate", 0.0),
        "hypo.points_in": attr_sum.get(("hypo.enumerate", "points"), 0),
        "hypo.behaviors_out": attr_sum.get(("hypo.enumerate", "behaviors"), 0),
        "hypo.enumerations_per_trial": calls.get("hypo.enumerate", 0) / trials,
        "xprun.indexed.erm_calls": calls.get("xprun.indexed.erm", 0),
        "xprun.indexed.erm_s": dur.get("xprun.indexed.erm", 0.0),
        "xprun.indexed.dr_exact_s": dur.get("xprun.indexed.dr_exact", 0.0),
        "xprun.indexed.dr_s_s": dur.get("xprun.indexed.dr_s", 0.0),
        "xprun.indexed.dr_s_bytes": elements * 8,
        "xprun.indexed.dr_s_shape_max": elements,
        "xprun.indexed.draw_s": dur.get("xprun.indexed.draw", 0.0),
        "xprun.indexed.slots_drawn": attr_sum.get(("xprun.indexed.draw", "slots"), 0),
        "xprun.indexed.view_builds": calls.get("xprun.indexed.view_build", 0),
        "xprun.indexed.view_build_s": dur.get("xprun.indexed.view_build", 0.0),
        "xprun.indexed.behaviors_s": dur.get("xprun.indexed.behaviors", 0.0),
        "tasks.build_calls": builds,
        "tasks.build_s": dur.get("tasks.build", 0.0),
        "tasks.builds_per_run": len(build_keys) / builds if builds else 1.0,
        "xprun.report.render_s": dur.get("xprun.report.render", 0.0),
        "xprun.report.rows": attr_sum.get(("xprun.report.render", "rows"), 0),
        "xprun.report.bytes": attr_sum.get(("xprun.report.render", "bytes"), 0),
        "perturb.sample_s": dur.get("perturb.sample", 0.0),
        "perturb.sample_values": attr_sum.get(("perturb.sample", "values"), 0),
        "derand.encode_s": dur.get("derand.encode", 0.0),
        "seeding.streams": calls.get("seeding.stream", 0),
        "learner.draw_s": dur.get("learner.draw", 0.0),
        "learner.drerm_s": dur.get("learner.drerm", 0.0),
        "xprun.suites.self_s": suite_self,
        "xprun.config.load_s": dur.get("xprun.config.load", 0.0),
        # share of the pass's wall time inside layer spans other than the
        # benchmark's own op span and the suite driver's self time
        "trace.layer_share": 1.0 - (root_self + suite_self) / root_total,
    }
