#!/usr/bin/env python3
"""Build and run the serving benchmark.

    python3 servebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 servebench/run.py --selftest

Builds the library and the benchmark from this checkout's sources (CMake,
Release) into $CARGO_TARGET_DIR/servebench, default .bench_build/servebench,
then runs one workload. The last line of stdout is the result JSON; build
output goes to stderr. Exits non-zero without a result when the build, the
run or the correctness gate fails.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "servebench")


def forget_config(bdir):
    """Drop a CMake configuration so the next build configures afresh."""
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        os.remove(cache)
    shutil.rmtree(os.path.join(bdir, "CMakeFiles"), ignore_errors=True)


def build(bdir, targets):
    """Configure once, then build `targets`; serialized by a lock file."""
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(bdir, "CMakeCache.txt")
        if os.path.exists(cache):
            with open(cache) as fh:
                if "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE not in fh.read():
                    forget_config(bdir)  # configured for another checkout
        if not os.path.exists(cache):
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                forget_config(bdir)
                return False
        cmd = ["cmake", "--build", bdir, "-j", jobs, "--target"] + targets
        return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def source_id():
    """git sha when the checkout is a repository, plus a digest of the
    sources the benchmark builds, so a run names the code it measured."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        git = sha.stdout.strip() if sha.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        git = "none"
    h = hashlib.sha256()
    for top in ("src", "servebench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if "__pycache__" in f:
                continue
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "git:%s,src:%s" % (git, h.hexdigest()[:12])


def run(cmd):
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("servebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and not a.workload:
        p.error("--workload is required")

    bdir = build_dir()
    target = "servebench_selftest" if a.selftest else "servebench"
    if not build(bdir, [target]):
        print("servebench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(bdir, target)
    if a.selftest:
        return run([exe])

    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", repr(a.seconds), "--trace", a.trace,
           "--source-id", source_id()]
    if a.trace == "1":
        traces = os.path.join(bdir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%d.json" % (a.workload, a.seed))]
    sys.stdout.flush()
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
