"""Command-line entry point: ``drloss KIND [options]``, the first argument naming the kind.

Exit codes: 0 when every statistical assertion passes, 1 on a statistical
assertion failure, 2 on configuration or I/O errors.
"""

from __future__ import annotations

import argparse
import sys

from .xprun import KINDS, ConfigError, emit_report, load_config, run_suite


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drloss",
        usage="%(prog)s KIND [options]",
        description="Seeded statistical experiments for worst-case-over-distributions learning.",
    )
    parser.add_argument("kind", choices=KINDS, metavar="KIND",
                        help="the suite to run: " + ", ".join(KINDS))
    parser.add_argument("--config", help="JSON or YAML config file (defaults are built in)")
    parser.add_argument("--seed", type=int, help="master seed override")
    parser.add_argument("--out", help="report output path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--jobs", type=int, help="worker processes (default 1)")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary lines")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.kind, path=args.config, seed=args.seed, jobs=args.jobs)
        report = run_suite(cfg)
        if args.out:
            emit_report(report, args.format, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        for line in report.summary_lines():
            print(line, file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
