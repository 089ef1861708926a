#!/usr/bin/env python3
"""Builds the end-to-end benchmark from the checkout's sources and runs it.

Run from the repository root:

    python3 e2ebench/run.py --workload pipeline_local --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench)
and is incremental. The benchmark binary's standard output is passed through;
its last line is the JSON result. Build output goes to standard error.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170


def build(src_dir, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", src_dir, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "e2ebench", "-j", "4"],
        check=True, stdout=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("pipeline_local", "pipeline_remote",
                             "serve_mixed"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", choices=("none", "drop", "dup"),
                    default="none",
                    help="drop or duplicate one sink row, to show that the "
                         "correctness gate rejects the run")
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(here, os.pardir, "src",
                                       "CMakeLists.txt")):
        print("e2ebench: the fbstream sources (src/) are missing",
              file=sys.stderr)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "e2ebench"))
    try:
        build(here, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print("e2ebench: build failed: %s" % e, file=sys.stderr)
        return 2

    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    cmd = [os.path.join(build_dir, "e2ebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--corrupt", args.corrupt]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)

    def stop(signum, _frame):
        # Never leave the benchmark running behind a killed wrapper.
        proc.kill()
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("e2ebench: run timed out", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
