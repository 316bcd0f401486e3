#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload <secure_dense|population_sparse|train_plain> \
        --seed <n> --seconds <s> --trace <0|1>

`--workload all` runs the three workloads one after another, each in its own process,
and exits non-zero if any of them fails.

The Rust package next to this script depends on the repository's crates by path and is
built in release mode into $CARGO_TARGET_DIR (default: .bench_build). Build output goes
to standard error; the benchmark's own output, whose last line is the JSON result, goes
to standard output. Traced runs write a chrome-trace span file under
<target dir>/perfbench-traces/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["secure_dense", "population_sparse", "train_plain"]


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    args = [*sys.argv[1:], "--trace-dir", os.path.join(target, "perfbench-traces")]
    at = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[at:at + 1] == ["all"]:
        failed = 0
        for workload in WORKLOADS:
            args[at] = workload
            failed |= subprocess.run([exe, *args], env=env).returncode != 0
        return int(failed)
    # Replace this process, so the benchmark's peak memory and exit code are its own.
    os.execve(exe, [exe, *args], env)
    return 1


if __name__ == "__main__":
    sys.exit(main())
