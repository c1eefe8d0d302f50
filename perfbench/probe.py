"""Probe of the known memory defect, run in its own process under an address-space cap.

Runs the interval-1d D = 64 ladder point (``workloads.PROBE``) once and
prints one JSON line: whether it finished or hit ``MemoryError``, the
bytes the failed allocation asked for, and the computed size
B x slots x D x 8 of the largest ``FiniteView.dr_s`` intermediate.  The
cap applies to this process only.  The probe is reported beside the
workload metrics, never inside them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
ADDRESS_SPACE_CAP = 2 << 30   # bytes; the ROADMAP's item-2 target is < 300 MiB


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    workdir = Path(args.workdir)
    config = workdir / "probe-interval-line64.json"
    config.write_text(json.dumps(workloads.ladder_config(*workloads.PROBE), sort_keys=True))

    sys.path.insert(0, str(ROOT / "src"))
    import drloss.cli as cli
    from drloss.xprun.indexed import FiniteView

    shapes = []
    dr_s = FiniteView.dr_s

    def recording_dr_s(self, labels, slot_atoms, counts, *rest):
        shapes.append((int(labels.shape[0]), int(len(slot_atoms)), int(counts.shape[-1])))
        return dr_s(self, labels, slot_atoms, counts, *rest)

    FiniteView.dr_s = recording_dr_s
    out = {"probe": "interval-1d D=64 n=m=50 trials=256", "cap_bytes": ADDRESS_SPACE_CAP}
    start = time.perf_counter()
    try:
        code = cli.main(["realizable", "--config", str(config), "--seed", str(args.seed),
                         "--out", str(workdir / "probe.csv"), "--format", "csv", "--jobs", "1",
                         "--quiet"])
        out["status"] = f"finished, exit code {code}"
    except MemoryError as exc:
        out["status"] = "MemoryError"
        shape, dtype = getattr(exc, "shape", None), getattr(exc, "dtype", None)
        if shape is not None and dtype is not None:
            elements = 1
            for n in shape:
                elements *= int(n)
            out["requested_bytes"] = elements * dtype.itemsize
            out["requested_shape"] = [int(n) for n in shape]
    out["seconds"] = time.perf_counter() - start
    if shapes:
        b, slots, d = max(shapes, key=lambda s: s[0] * s[1] * s[2])
        out["dr_s_shape_max"] = [b, slots, d]
        out["dr_s_bytes_computed"] = b * slots * d * 8
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
