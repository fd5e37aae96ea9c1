#!/usr/bin/env python3
"""Pipeline benchmark: build the benchmark from source and run one workload.

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark program (perfbench/src) links the
repository's src/ libraries unchanged; it is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). Build output
goes to stderr. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; nothing is printed there when the
build or the run fails, and the exit code is then non-zero.

Workloads: train_default, ingest_paper, serve_fleet (see perfbench/README.md).
Extra seeds (--trace-seed, --stream-seed, --train-seed) are passed through.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850
# setup_s is the median over this many set-ups, each in a fresh process:
# SETUPS - 1 set-up-only processes plus the measuring one.
SETUPS = 3


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else Path.cwd() / base) / "perfbench"


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; False on failure."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode == 0
    except subprocess.TimeoutExpired:
        print(f"run.py: timed out: {' '.join(cmd)}", file=sys.stderr)
        return False


def build(out: Path, targets) -> bool:
    if not (out / "CMakeCache.txt").exists():
        if not run_checked(["cmake", "-S", str(HERE), "-B", str(out), "-G",
                            "Ninja", "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                           BUILD_TIMEOUT_S):
            return False
    return run_checked(["cmake", "--build", str(out), "-j", "4", "--target",
                        *targets], BUILD_TIMEOUT_S)


def valid_result(line: str) -> bool:
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int)
            and result["attempted"] >= 1
            and all(isinstance(m.get("value"), (int, float))
                    for m in result["metrics"].values()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--stream-seed", type=int)
    parser.add_argument("--train-seed", type=int)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    out = build_dir()
    if args.self_test:
        if not build(out, ["perfbench_test"]):
            return 1
        return subprocess.run([str(out / "perfbench_test")]).returncode

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build(out, ["perfbench"]):
        return 1

    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    for flag in ("trace_seed", "stream_seed", "train_seed"):
        value = getattr(args, flag)
        if value is not None:
            cmd += ["--" + flag.replace("_", "-"), str(value)]
    deadline = time.monotonic() + RUN_TIMEOUT_S

    setup_s = []
    if args.trace == 0:
        for _ in range(SETUPS - 1):
            lines = run_program(cmd + ["--setup-only", "1"], deadline)
            if lines is None:
                return 1
            setup_s.append(json.loads(lines[-1])["setup_s"])
    else:
        cmd += ["--spans-out", str(out / f"spans-{args.workload}.json")]
    lines = run_program(cmd, deadline)
    if lines is None or not valid_result(lines[-1]):
        print("run.py: the benchmark run failed", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if setup_s:
        setup = result["metrics"]["setup_s"]
        setup_s.append(setup["value"])
        setup["value"] = statistics.median(setup_s)
        lines[-1] = json.dumps(result)
        lines.insert(-1, f"  setup_s over {len(setup_s)} processes: median "
                     f"{setup['value']:.6f} s (" +
                     ", ".join(f"{v:.4f}" for v in setup_s) + ")")
    print("\n".join(lines), flush=True)
    return 0


def run_program(cmd, deadline):
    """Runs the program; its stdout lines, or None (reported) on failure."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark run timed out", file=sys.stderr)
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        print("\n".join(l for l in lines if not valid_result(l)))
        print(f"run.py: {cmd[0]} exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return lines


if __name__ == "__main__":
    sys.exit(main())
