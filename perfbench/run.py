#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload hot_hits|sweep_cold|fleet_open \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds the
`perfbench` program and the prts library from this checkout's sources
(Release) into the directory named by $CARGO_TARGET_DIR, default
`.bench_build`, then runs one workload. The last line of standard output
is the run's JSON result. Traced runs write their spans under
<build dir>/traces/.
"""
import os
import subprocess
import sys
from pathlib import Path

# A run must end within 180 s; the benchmark itself stays far below.
RUN_TIMEOUT_SECONDS = 170


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(2)


def main():
    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"{root} is not a prts checkout (no CMakeLists.txt and src/)")
    build = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build.is_absolute():
        build = root / build
    binary = build / "perfbench"

    # Build output goes to stderr: stdout carries only the result.
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(bench_dir), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))

    traces = build / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    command = [str(binary), *sys.argv[1:], "--span-dir", str(traces)]
    try:
        completed = subprocess.run(command, timeout=RUN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_SECONDS} s")
    sys.exit(completed.returncode)


if __name__ == "__main__":
    main()
