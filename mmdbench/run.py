#!/usr/bin/env python3
"""Build and run the mmd benchmark.

Usage (from the repository root):

    python3 mmdbench/run.py --workload <mesh-corpus|grid-1m|service-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary (Release) into $CARGO_TARGET_DIR/mmdbench, default
.bench_build/mmdbench, then runs it.  Its report lines pass
through; its last line is one JSON object with the keys correct,
attempted, failed and metrics.  Exits non-zero, without a result line,
when the library sources are missing, the build fails, or the run fails.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    sys.stderr.write("mmdbench: " + msg + "\n")
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "decompose.hpp")):
        fail("library sources not found at src/ next to mmdbench/")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "mmdbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "mmdbench")


def main():
    binary = build()
    proc = subprocess.Popen([binary] + sys.argv[1:], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = out.splitlines()
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail("benchmark binary exited with code %d" % proc.returncode, proc.returncode)
    if not lines:
        fail("benchmark binary printed nothing", 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON: " + lines[-1], 1)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys: %s" % sorted(result), 1)
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")


if __name__ == "__main__":
    main()
