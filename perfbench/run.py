#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload oltp_hot --seed 7 --seconds 20 --trace 0

Builds the benchmark (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs it in
its own process under a wall-clock watchdog. gdi_bench prints every metric
with its unit and clock and, as its last line, the JSON result. If gdi_bench
crashes or hangs, this script prints a failed result in which every operation
counts as failed, and exits non-zero. See perfbench/README.md.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("oltp_linkbench", "oltp_hot", "olap", "wire")
BUILD_TIMEOUT_S = 850
WATCHDOG_GRACE_S = 100  # set-up, input and output checks around the measured window


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(build_dir), *gen,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", "4"],
    ]
    for cmd in steps:
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                             text=True, timeout=BUILD_TIMEOUT_S)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def failed_result(attempted, why):
    log(why)
    n = max(attempted, 1)
    print(json.dumps({"correct": False, "attempted": n, "failed": n, "metrics": {}}), flush=True)
    return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    try:
        if not build(build_dir):
            return 1
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [str(build_dir / "gdi_bench"), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--run-dir", str(ROOT / ".bench_run")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=a.seconds + WATCHDOG_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        sys.stdout.write(out)
        return failed_result(progress(out), "watchdog: gdi_bench hung and was killed")
    finally:
        # A run that died leaves its WAL directories (named after its pid).
        for d in (ROOT / ".bench_run").glob(f"wal-*-{proc.pid}-*"):
            shutil.rmtree(d, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if proc.returncode < 0 or result is None:
        if result is None:
            print(lines[-1], flush=True)
        return failed_result(progress(out), f"gdi_bench died (exit {proc.returncode})")
    print(lines[-1], flush=True)
    return 0 if proc.returncode == 0 and result.get("correct") else 1


def progress(out):
    """Operations gdi_bench reported as attempted before it stopped."""
    n = 0
    for line in out.splitlines():
        if line.startswith("progress attempted="):
            n = int(line.split("=", 1)[1])
    return n


if __name__ == "__main__":
    sys.exit(main())
