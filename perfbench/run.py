#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Workloads: label-eval, loocv, serve-loop, serve-program (see
perfbench/README.md); "all" runs the four in turn. The program is built
with CMake under $CARGO_TARGET_DIR (default .bench_build). Every metric is
printed as a "metric <name> <value> <unit>" line; the last line is one JSON
object with "correct", "attempted", "failed" and "metrics", where the
metrics are BENCHMARK.json's end_to_end set (--trace 0) or its per_layer
set (--trace 1).
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["label-eval", "loocv", "serve-loop", "serve-program"]
TARGETS = ["perfbench", "metaopt-serve", "metaopt-gateway"]
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the benchmark and the serving binaries."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target"]
                   + TARGETS, check=True, stdout=sys.stderr)


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git") and shutil.which("git"):
        result = subprocess.run(["git", "rev-parse", "HEAD"],
                                capture_output=True, text=True)
        if result.returncode == 0:
            return result.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run_workload(args, build_dir, work_dir, commit):
    """Runs one workload; returns the program's result object."""
    tools = os.path.join(build_dir, "metaopt-tools")
    command = [os.path.join(build_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--repo", ".", "--work-dir", work_dir,
               "--serve-bin", os.path.join(tools, "metaopt-serve"),
               "--gateway-bin", os.path.join(tools, "metaopt-gateway"),
               "--commit", commit]
    # Its own process group, so a timeout also stops the fleet it started.
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d" % (args.workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def contract_result(spec, result, trace):
    """The machine-readable result: BENCHMARK.json's metrics and units."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        measured = result["metrics"].get(entry["name"])
        if measured is None or measured["unit"] != entry["unit"]:
            fail("%s did not report %s in %s"
                 % (result["provenance"]["workload"], entry["name"],
                    entry["unit"]))
        metrics[entry["name"]] = measured
    return {"correct": result["failed"] == 0 and result["attempted"] > 0,
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the repository root: no src/CMakeLists.txt here", 2)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"), "perfbench")
    work_dir = os.path.join(build_dir, "work")
    try:
        build(build_dir)
    except subprocess.CalledProcessError as error:
        fail("build failed: %s" % error)
    commit = source_id()

    if args.workload != "all":
        result = run_workload(args, build_dir, work_dir, commit)
        print(json.dumps(contract_result(spec, result, args.trace)))
        return
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        args.workload = workload
        part = contract_result(spec, run_workload(args, build_dir, work_dir,
                                                  commit), args.trace)
        combined["correct"] = combined["correct"] and part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for name, value in part["metrics"].items():
            combined["metrics"][workload + "/" + name] = value
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
