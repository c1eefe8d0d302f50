"""One workload in one fresh process: set up, run timed passes, check outputs.

Started by ``run.py``; writes its result as JSON to ``--result``.  Nothing
from drloss is imported before the set-up clock starts, so ``setup_s``
covers importing the package and loading and validating every config the
workload uses.  Untraced runs time every operation both as measured and as
adjusted to a reference core by ``speed.SpeedSampler``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from statistics import median

import workloads
from speed import REF_KERNEL_S, SpeedSampler
from tracer import Tracer, install, summarize

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 5          # per timed loop, so an operation's median can set two slow runs aside
MIN_TRACED_PASSES = 2   # per half of a traced run


def cpu_now() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Runner:
    """Runs operations, times them and checks every report they write."""

    def __init__(self, cli, checks, workdir: Path, sampler: SpeedSampler | None):
        self.cli = cli
        self.checks = checks
        self.workdir = workdir
        self.sampler = sampler
        self.attempted = 0
        self.failed = 0
        self.problems: list = []     # the first few distinct ones, for the log
        self._verdicts: dict = {}    # (label, format, seed) -> (sha256, problems)

    def run(self, op, seed: int, tracer: Tracer | None = None) -> tuple:
        """Run and check one operation.

        Returns its wall and CPU seconds, as measured and then as adjusted
        to the reference core (the same when there is no sampler).
        """
        out = self.workdir / f"{op.label}.{op.fmt}"
        mark = self.sampler.mark() if self.sampler else None
        wall0, cpu0 = time.perf_counter(), cpu_now()
        try:
            if tracer is None:
                code = self.cli.main(op.argv(seed, str(out)))
            else:
                with tracer.span("op", label=op.label):
                    code = self.cli.main(op.argv(seed, str(out)))
        except SystemExit as exc:        # argparse rejects its arguments this way
            code = exc.code
        except Exception:
            code = traceback.format_exc()
        wall, cpu = time.perf_counter() - wall0, cpu_now() - cpu0
        adjusted = self.sampler.adjust(mark, wall, cpu) if self.sampler else [wall, cpu]
        problems = self.check(op, seed, out, code)
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                line = f"{op.label} ({op.fmt}, seed {seed}): {p}"
                if len(self.problems) < 20 and line not in self.problems:
                    self.problems.append(line)
        return (wall, cpu, *adjusted)

    def check(self, op, seed: int, out: Path, code) -> list:
        """Problems with one operation's outcome; same bytes at the same seed get the same verdict."""
        if code not in (0, 1):
            return [f"exit code {code}" if isinstance(code, int) else f"raised\n{code}"]
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        key = (op.label, op.fmt, seed)
        if key in self._verdicts:
            first, problems = self._verdicts[key]
            return problems if digest == first else ["report bytes changed between passes"]
        try:
            problems = self.checks.check_report(op.kind, str(out), op.fmt, code, seed)
        except Exception:                # a malformed report fails its operation
            problems = [f"report check raised\n{traceback.format_exc()}"]
        if op.config is None:
            problems += self.checks.check_golden(f"{op.kind}.{op.fmt}", seed, digest)
        self._verdicts[key] = (digest, problems)
        return problems

    def passes(self, ops, seed: int, seconds: float, min_passes: int, tracer=None) -> list:
        """Repeat the operation list until ``seconds`` pass.

        One tuple per pass: the times ``run`` gave for each of its
        operations, in order, then the range of the pass's spans.
        """
        out = []
        deadline = time.perf_counter() + seconds
        while len(out) < min_passes or time.perf_counter() < deadline:
            lo = len(tracer.spans) if tracer else 0
            times = [self.run(op, seed, tracer) for op in ops]
            out.append((times, lo, len(tracer.spans) if tracer else 0))
        return out


def pass_wall(passes: list) -> float:
    """Median over passes of the pass's measured wall time."""
    return median(sum(t[0] for t in times) for times, _, _ in passes)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workdir = Path(args.workdir)
    ops = workloads.build(args.workload, workdir)
    # end-to-end timings are adjusted for the core's speed; traced runs are not
    with SpeedSampler() if args.trace == 0 else nullcontext() as sampler:
        return measure(args, ops, workdir, sampler)


def measure(args, ops: list, workdir: Path, sampler: SpeedSampler | None) -> int:
    """Set up, then run the workload's passes and the checks; write the result."""
    mark = sampler.mark() if sampler else None
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import drloss.cli as cli
    configs = [cli.load_config(op.kind, path=op.config, seed=args.seed, jobs=1) for op in ops]
    setup_s = time.perf_counter() - start
    result = {"setup_raw_s": setup_s,
              "setup_s": sampler.adjust(mark, setup_s)[0] if sampler else setup_s}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    import checks
    runner = Runner(cli, checks, workdir, sampler)
    # base of hypo.enumerations_per_trial: trials of the suites that take a hypothesis class
    trials = sum(cfg.trials * len(cfg.grid) for cfg in configs if cfg.hypothesis_class)
    if args.trace == 0:
        timed = runner.passes(ops, args.seed, args.seconds, MIN_PASSES)
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["times"] = [times for times, _, _ in timed]
        result["kernel_slowdown"] = median(sampler.kernel_s) / REF_KERNEL_S
    else:
        plain = runner.passes(ops, args.seed, args.seconds / 2, MIN_TRACED_PASSES)
        tracer = Tracer()
        install(tracer)
        try:
            traced = runner.passes(ops, args.seed, args.seconds / 2, MIN_TRACED_PASSES, tracer)
        finally:
            tracer.restore()
        selfs = tracer.self_times()
        per_pass = [summarize(tracer.spans, selfs, lo, hi, trials) for _, lo, hi in traced]
        layer = {name: median([p[name] for p in per_pass]) for name in per_pass[0]}
        layer["trace.overhead_s"] = pass_wall(traced) - pass_wall(plain)
        result["layer"] = layer
        tracer.write_jsonl(workdir / f"trace-{args.workload}-seed{args.seed}.jsonl")

    if args.workload == "suite-defaults":
        for op in workloads.golden_ops():
            runner.run(op, checks.GOLDENS[f"{op.kind}.{op.fmt}"]["seed"])
    result.update(attempted=runner.attempted, failed=runner.failed, problems=runner.problems)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
