#!/usr/bin/env python3
"""perf_trend: append perfbench results to the perf trajectory file.

  python3 tools/perf_trend.py --workload serve_fleet [--commit SHA]
      [--trend bench/baselines/trend.jsonl] RESULT_FILE [RESULT_FILE ...]

Each RESULT_FILE holds the stdout of one or more `perfbench/run.py` runs of
the named workload. Every line that is a perfbench result object
({"correct", "attempted", "failed", "metrics"}) counts as one run; the other
lines (the human-readable table) are skipped. For each metric the script
appends one row to the trend file:

  {"utc", "commit", "workload", "metric", "median", "iqr", "n"}

where median and iqr (third minus first quartile) are over the n runs that
report the metric. Run it once for a change's parent and once for the
change, on the same machine in the same session, so the file carries the
before/after pair that a performance claim quotes.

`commit` defaults to `git describe --always --dirty`: a row measured on an
uncommitted tree reads "<parent>-dirty" and is joined to the commit that
added it to the trend file (`git log -S` or `git blame` on the row).

This module also owns the trend-file writer that bench/run_all.py --trend
uses, so both producers stamp and append rows the same way.

Exit code: 0 rows appended, 1 no result line in the input, 2 bad arguments.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def git_commit() -> str:
    """The tree actually measured: HEAD's hash, suffixed "-dirty" when the
    working tree has uncommitted changes (so such rows never pass for HEAD)."""
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=7"],
            capture_output=True, text=True,
            cwd=Path(__file__).resolve().parent)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def append_rows(rows: list[dict], trend_path: Path) -> None:
    """Appends `rows` as JSON lines; the trend file only ever grows."""
    trend_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trend_path, "a", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row) + "\n")


def parse_results(lines) -> list[dict]:
    """The metrics of every perfbench result line among `lines`."""
    results = []
    for line in lines:
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            result = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(result, dict) and set(result) == RESULT_KEYS:
            results.append(result["metrics"])
    return results


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) with linear interpolation between order statistics."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0], ordered[0], ordered[0]
    q1, q2, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return q1, q2, q3


def trend_rows(results: list[dict], workload: str, commit: str,
               utc: str) -> list[dict]:
    """One row per metric, in name order."""
    rows = []
    for name in sorted({name for r in results for name in r}):
        values = [float(r[name]["value"]) for r in results if name in r]
        q1, median, q3 = quartiles(values)
        rows.append({"utc": utc, "commit": commit, "workload": workload,
                     "metric": name, "median": median, "iqr": q3 - q1,
                     "n": len(values)})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--commit", default=None,
                        help="commit the results were measured on "
                             "(default: git describe --always --dirty)")
    parser.add_argument("--trend", type=Path,
                        default=Path("bench/baselines/trend.jsonl"))
    parser.add_argument("results", nargs="+", type=Path)
    args = parser.parse_args(argv)

    results = []
    for path in args.results:
        try:
            results += parse_results(
                path.read_text(encoding="utf-8").splitlines())
        except OSError as error:
            print(f"perf_trend: {error}", file=sys.stderr)
            return 2
    if not results:
        print("perf_trend: no perfbench result line in the input",
              file=sys.stderr)
        return 1
    rows = trend_rows(results, args.workload, args.commit or git_commit(),
                      utc_now())
    append_rows(rows, args.trend)
    print(f"perf_trend: appended {len(rows)} rows from {len(results)} runs "
          f"-> {args.trend}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
