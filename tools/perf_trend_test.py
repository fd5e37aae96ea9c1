#!/usr/bin/env python3
"""Unit tests for tools/perf_trend.py: result lines are found among the
table lines, the statistics are over runs, and rows are appended, never
rewritten."""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import perf_trend  # noqa: E402


def result_line(**metrics: float) -> str:
    return json.dumps({
        "correct": True, "attempted": 10, "failed": 0,
        "metrics": {name: {"value": value, "unit": "s"}
                    for name, value in metrics.items()}})


class PerfTrendTest(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name: str, *lines: str) -> str:
        path = self.dir / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def run_tool(self, *argv: str) -> int:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return perf_trend.main(list(argv))

    def test_skips_table_lines_and_foreign_json(self):
        lines = ["perfbench serve_fleet  seeds: trace 42",
                 "  pass_s   1.85 s   n=3 passes",
                 '{"not": "a result"}',
                 "{broken json",
                 result_line(pass_s=1.5)]
        self.assertEqual(perf_trend.parse_results(lines),
                         [{"pass_s": {"value": 1.5, "unit": "s"}}])

    def test_median_and_iqr_over_runs(self):
        results = [{"pass_s": {"value": v}} for v in (5.0, 1.0, 3.0, 2.0, 4.0)]
        [row] = perf_trend.trend_rows(results, "serve_fleet", "abc1234",
                                      "2026-01-01T00:00:00Z")
        self.assertEqual(row, {"utc": "2026-01-01T00:00:00Z",
                               "commit": "abc1234", "workload": "serve_fleet",
                               "metric": "pass_s", "median": 3.0, "iqr": 2.0,
                               "n": 5})

    def test_single_run_has_zero_iqr(self):
        [row] = perf_trend.trend_rows([{"cpu_s": {"value": 7.0}}], "w", "c",
                                      "t")
        self.assertEqual((row["median"], row["iqr"], row["n"]), (7.0, 0.0, 1))

    def test_metric_missing_from_some_runs_counts_only_its_runs(self):
        results = [{"a": {"value": 1.0}, "b": {"value": 2.0}},
                   {"a": {"value": 3.0}}]
        rows = perf_trend.trend_rows(results, "w", "c", "t")
        self.assertEqual([(r["metric"], r["n"]) for r in rows],
                         [("a", 2), ("b", 1)])

    def test_appends_one_row_per_metric_over_all_files(self):
        trend = self.dir / "trend.jsonl"
        trend.write_text('{"existing": 1}\n', encoding="utf-8")
        first = self.write("run1.txt", "table line",
                           result_line(pass_s=2.0, cpu_s=4.0))
        second = self.write("run2.txt", result_line(pass_s=4.0, cpu_s=6.0))
        self.assertEqual(self.run_tool(
            "--workload", "serve_fleet", "--commit", "deadbee",
            "--trend", str(trend), first, second), 0)
        rows = [json.loads(l) for l in trend.read_text().splitlines()]
        self.assertEqual(rows[0], {"existing": 1})
        self.assertEqual([(r["metric"], r["median"], r["iqr"], r["n"])
                          for r in rows[1:]],
                         [("cpu_s", 5.0, 1.0, 2), ("pass_s", 3.0, 1.0, 2)])
        self.assertTrue(all(r["commit"] == "deadbee" and
                            r["workload"] == "serve_fleet"
                            for r in rows[1:]))

    def test_no_result_line_is_an_error_and_writes_nothing(self):
        trend = self.dir / "trend.jsonl"
        empty = self.write("empty.txt", "perfbench: build failed")
        self.assertEqual(self.run_tool("--workload", "w", "--commit", "c",
                                       "--trend", str(trend), empty), 1)
        self.assertFalse(trend.exists())

    def test_missing_input_file_is_a_usage_error(self):
        self.assertEqual(self.run_tool("--workload", "w", "--commit", "c",
                                       "--trend", str(self.dir / "t.jsonl"),
                                       str(self.dir / "missing.txt")), 2)


if __name__ == "__main__":
    unittest.main()
