#!/usr/bin/env python3
"""Builds the isex benchmark program from source and runs one workload.

    python3 perfbench/run.py --workload fig11|wide|corpus|service \
        --seed N --seconds S --trace 0|1 [--smoke] [--record]

Run it from the root of a checkout. The program is configured and built with
CMake (Release) under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; build output goes to stderr. The last line of
stdout is the result object {correct, attempted, failed, metrics}. Without
the isex sources next to perfbench/ the build fails and the script exits
non-zero without a result line.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850


def source_digest():
    """Hash of every library and benchmark source, standing in for a commit
    id when the checkout is not a git repository."""
    h = hashlib.sha256()
    tops = [os.path.join(ROOT, "src"), os.path.join(HERE, "src"),
            os.path.join(ROOT, "CMakeLists.txt"), os.path.join(HERE, "CMakeLists.txt")]
    files = []
    for top in tops:
        if os.path.isfile(top):
            files.append(top)
        for dirpath, _, names in os.walk(top):
            files.extend(os.path.join(dirpath, n) for n in names)
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    digest = "src-" + source_digest()
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return digest
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return digest
    head = out.stdout.strip()
    return f"{head} {digest}" if out.returncode == 0 and head else digest


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", build_dir, "--target", "isex_perfbench", "-j", jobs]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        try:
            result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: build step failed: {e}", file=sys.stderr)
            return False
        if result.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}", file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass per phase (self-test)")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the pinned fig11/wide digests")
    args = parser.parse_args()

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(out_root, "perfbench")
    if not build(build_dir):
        return 2

    cmd = [os.path.join(build_dir, "isex_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--expected-dir", os.path.join(HERE, "expected"),
           "--work-dir", os.path.relpath(os.path.join(build_dir, "work"), ROOT),
           "--commit", commit_id()]
    if args.smoke:
        cmd.append("--smoke")
    if args.record:
        cmd.append("--record")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
