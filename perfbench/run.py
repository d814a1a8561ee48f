#!/usr/bin/env python3
"""Builds the control-plane benchmark and runs one workload of it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

The simulator sources under src/ and the udcbench sources in this
directory are compiled together (CMake, Release) into .bench_build/perfbench,
or under $CARGO_TARGET_DIR when that is set. Build output goes to stderr.
The udcbench report goes to stdout. Its last line is the JSON result,
cut down to the metrics BENCHMARK.json lists for the run's --trace mode:
end_to_end for 0, per_layer for 1. The exit code is non-zero when the
build, the run or any check fails, or a listed metric is missing.

--self-check runs every workload at a tiny size, traced and untraced, and
fails if a metric named in BENCHMARK.json is missing or has another unit,
if the report lacks a metric named in interactions.json, or if any check
fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet_churn", "federation_skew", "tenant_lifecycle")
RUN_TIMEOUT_S = 175


def build():
    """Configures and builds udcbench; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out = os.path.join(ROOT, target, "perfbench")
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs], stdout=sys.stderr,
                   check=True)
    return os.path.join(out, "udcbench")


def listed_metrics(trace):
    """The BENCHMARK.json metrics of one --trace mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["per_layer" if trace else "end_to_end"]


def run(binary, workload, seed, seconds, trace, tiny=False):
    """Runs udcbench once; returns (exit code, report, result).

    The result is udcbench's JSON line with only the listed metrics, or
    None when there is none.
    """
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if tiny:
        args.append("--tiny")
    proc = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode, proc.stdout, None
    measured = result["metrics"]
    result["metrics"] = {m["name"]: measured[m["name"]]
                         for m in listed_metrics(trace)
                         if m["name"] in measured}
    return proc.returncode, "\n".join(lines[:-1]) + "\n", result


def self_check(binary):
    with open(os.path.join(HERE, "interactions.json")) as f:
        interactions = json.load(f)
    problems = []
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            code, report, result = run(binary, workload, 7, 1, trace,
                                       tiny=True)
            if code != 0 or not result or result.get("correct") is not True:
                problems.append(f"{label}: exit {code}, result {result}")
                continue
            if result["attempted"] < 1 or result["failed"] != 0:
                problems.append(f"{label}: attempted {result['attempted']}, "
                                f"failed {result['failed']}")
            for metric in listed_metrics(trace):
                got = result["metrics"].get(metric["name"])
                if not isinstance(got, dict) or not got.get("unit"):
                    problems.append(f"{label}: {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} unit "
                                    f"{got['unit']}, want {metric['unit']}")
                elif not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{label}: {metric['name']} not a number")
            printed = {line.split()[0] for line in report.splitlines()
                       if line.startswith("  ")}
            for metric in interactions[key]:
                if metric["name"] not in printed:
                    problems.append(f"{label}: report lacks {metric['name']}")
    for problem in problems:
        print("self-check FAIL:", problem)
    print("self-check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"build failed: {error}", file=sys.stderr)
        return 1
    if args.self_check:
        return self_check(binary)
    try:
        code, report, result = run(binary, args.workload, args.seed,
                                   args.seconds, args.trace)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(report)
    if result is None:
        print("udcbench printed no result", file=sys.stderr)
        return 1
    missing = [m["name"] for m in listed_metrics(args.trace)
               if m["name"] not in result["metrics"]]
    if missing:
        print(f"  FAIL not measured: {', '.join(missing)}")
        result["correct"] = False
        code = code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
