"""drloss benchmark: end-to-end and per-layer metrics of the CLI suites.

    python3 perfbench/run.py --workload suite-defaults --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a drloss checkout.  One run measures one workload in
fresh child processes (``worker.py``), each driving ``drloss.cli.main``
in-process with ``--jobs 1``, one operation at a time.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.  ``--workload all`` runs every workload in both modes and
prints them all.  The last line of a single-workload run is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7          # fresh processes whose set-up time is measured; the median is reported
CHILD_TIMEOUT_S = 150   # a whole run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s"}
LAYER_UNITS = {"_s": "s", "bytes": "B", "_per_trial": "ratio", "_per_run": "ratio", "_share": "ratio"}


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def pass_times(res: dict) -> tuple:
    """``wall_s`` and ``cpu_s`` of one pass: over its operations, the sum of
    the median adjusted time of each operation's runs (see ``speed.py``)."""
    runs = list(zip(*res["times"]))     # per operation, its runs in pass order
    return tuple(sum(median(t[i] for t in op) for op in runs) for i in (2, 3))


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("DRLOSS_")}
    # one BLAS thread: the load is a single closed-loop caller on a 2-core machine
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def child(script: str, args: list, stdout, stderr) -> None:
    subprocess.run([sys.executable, str(HERE / script), *args], cwd=ROOT, env=child_env(),
                   stdout=stdout, stderr=stderr, timeout=CHILD_TIMEOUT_S, check=True)


def run_one(workload: str, seed: int, seconds: int, trace: int, workdir: Path) -> dict:
    """Run one workload in fresh processes; return the benchmark's result object."""
    base = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    result_path = workdir / f"result-{workload}.json"
    setup_path = workdir / f"setup-{workload}.json"
    with open(workdir / f"{workload}.log", "w") as log:
        def setup_only() -> dict:
            child("worker.py", base + ["--seconds", "0", "--setup-only",
                                       "--result", str(setup_path)], log, log)
            return json.loads(setup_path.read_text())

        # set-up samples come half before and half after the timed child, so
        # that they span the whole run rather than one moment of it
        extra = SETUP_RUNS - 1 if trace == 0 else 0
        setups = [setup_only() for _ in range(extra // 2)]
        child("worker.py", base + ["--seconds", str(seconds), "--trace", str(trace),
                                   "--result", str(result_path)], log, log)
        res = json.loads(result_path.read_text())
        setups += [setup_only() for _ in range(extra - extra // 2)]
        probe_path = workdir / "probe.json"
        with open(probe_path, "w") as out:
            child("probe.py", ["--seed", str(seed), "--workdir", str(workdir)], out, log)
    probe = json.loads(probe_path.read_text().splitlines()[-1])

    notes = []
    if trace == 0:
        setups.append(res)
        wall, cpu = pass_times(res)
        values = {"wall_s": wall, "cpu_s": cpu,
                  "peak_rss_mib": res["peak_rss_mib"],
                  "setup_s": median(s["setup_s"] for s in setups)}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        raw = [[sum(t[i] for t in times) for times in res["times"]] for i in (0, 1)]
        notes.append(f"{len(res['times'])} timed passes; median pass as measured, before "
                     f"adjusting to the reference core: wall_s {median(raw[0]):.4g} s, "
                     f"cpu_s {median(raw[1]):.4g} s, "
                     f"setup_s {median(s['setup_raw_s'] for s in setups):.4g} s; "
                     f"median kernel slowdown {res['kernel_slowdown']:.3f}")
    else:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["layer"].items()}
    return {"correct": res["failed"] == 0 and res["attempted"] > 0,
            "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics,
            "_notes": notes, "_problems": res["problems"], "_probe": probe}


def report(workload: str, trace: int, result: dict) -> None:
    print(f"== {workload} (trace {trace}): attempted {result['attempted']}, "
          f"failed {result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    for note in result["_notes"]:
        print(f"  {note}")
    for problem in result["_problems"]:
        print(f"  problem: {problem}")
    print("  probe: " + json.dumps(result["_probe"], sort_keys=True))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "drloss" / "__init__.py").is_file():
        print(f"no drloss sources under {ROOT / 'src'}; run from a drloss checkout", file=sys.stderr)
        return 2
    workdir = HERE / "out"
    workdir.mkdir(exist_ok=True)
    try:
        if args.workload != "all":
            result = run_one(args.workload, args.seed, args.seconds, args.trace, workdir)
            report(args.workload, args.trace, result)
            print(json.dumps({k: v for k, v in result.items() if not k.startswith("_")}))
            return 0
        for workload in WORKLOADS:
            for trace in (0, 1):
                report(workload, trace, run_one(workload, args.seed, args.seconds, trace, workdir))
        return 0
    except (subprocess.SubprocessError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc!r}; logs in {workdir}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
