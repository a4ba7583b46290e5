#!/usr/bin/env python3
"""Builds the benchmark harness from this checkout and runs one workload.

    python3 perfbench/run.py --workload train_cv|serve_hot \
        --seed N --seconds S --trace 0|1

Run from the root of the checkout. The first run configures and builds
perfbench/CMakeLists.txt (which builds the repository's library) into
.bench_build/; later runs only rebuild what changed. Build output goes to
stderr, so the last line of stdout is the harness's result object. Exits
non-zero, without a result, when the checkout cannot be built.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
RUN_TIMEOUT_S = 170


def revision():
    """The commit when git metadata exists, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build():
    """Configures once, then builds the harness; False on any failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: run from the repository root (no CMakeLists.txt "
              "or src/ here)", file=sys.stderr)
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if _have("ninja") else []
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
                     + generator)
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_harness", "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return os.path.isfile(HARNESS)


def _have(program):
    return any(os.access(os.path.join(d, program), os.X_OK)
               for d in os.environ.get("PATH", "").split(os.pathsep) if d)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train_cv", "serve_hot"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--revision", revision()]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: harness timed out", file=sys.stderr)
        return 1
    lines = out.rstrip("\n").split("\n") if out else []
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        print("perfbench: harness exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
