"""CLI entry point: ``python -m benchmarks.perf.run [--check]
[--filter SUBSTR] [--output PATH]``.

Runs every case at its one pinned size and writes ``BENCH_PERF.json``;
``--check`` exits 1 when any case's parity exceeds 1e-12 or its speedup
regresses more than 30% below ``benchmarks/perf/baselines.json``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from benchmarks.perf.harness import (
    check_against_baselines,
    filter_cases,
    run_suite,
    write_report,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail when any case's parity exceeds 1e-12 or its speedup "
        "regresses >30%% vs benchmarks/perf/baselines.json",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write BENCH_PERF.json (default: repo root)",
    )
    parser.add_argument(
        "--filter",
        default=None,
        metavar="SUBSTR",
        help="only run cases whose name contains SUBSTR",
    )
    args = parser.parse_args(argv)

    cases = filter_cases(args.filter)
    if not cases:
        print(f"[perf] no cases match --filter {args.filter!r}", file=sys.stderr)
        return 2
    results = run_suite(cases)
    report = write_report(results, path=args.output)
    print(f"[perf] wrote {report}")

    if args.check:
        failures = check_against_baselines(results)
        if failures:
            for failure in failures:
                print(f"[perf] FAIL: {failure}", file=sys.stderr)
            return 1
        print("[perf] every case holds parity and its speedup floor")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
