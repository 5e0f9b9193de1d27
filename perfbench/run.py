#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the benchmark (the library
sources under src/ plus perfbench/src) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload and passes its output through. The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics. The
exit status is non-zero when the build fails or a correctness check fails.

Workloads: campaign_known, campaign_described, campaign_defended,
serve_ingest, or `all` to run the four in turn; the last line then merges
them, with each metric named <workload>.<metric>. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_TIMEOUT_S = 170
WORKLOADS = ["campaign_known", "campaign_described", "campaign_defended",
             "serve_ingest"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """SHA-256 over every file under src/ (path and bytes), sorted."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "eta2_perfbench",
                  "-j", jobs])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources under ./src; run from the repository root")
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, target)
    build_dir = os.path.join(build_root, "perfbench")
    if not build(build_dir):
        return 3
    # Write back what the build and earlier runs left dirty, so the
    # writeback does not overlap the measurement.
    os.sync()
    binary = os.path.join(build_dir, "eta2_perfbench")
    provenance = ["--out-dir=" + os.path.join(build_root, "perfbench-out"),
                  "--git-sha=" + git_sha(),
                  "--source-digest=" + source_digest()]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        cmd = [binary, f"--workload={workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}"]
        try:
            res = subprocess.run(cmd + provenance, stdout=subprocess.PIPE,
                                 text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
            return 4
        sys.stdout.write(res.stdout)
        sys.stdout.flush()
        status = status or res.returncode
        lines = res.stdout.strip().splitlines()
        if len(workloads) > 1 and lines:
            result = json.loads(lines[-1])
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                merged["metrics"][f"{workload}.{name}"] = metric
    if len(workloads) > 1:
        print(json.dumps(merged))
    return status


if __name__ == "__main__":
    sys.exit(main())
