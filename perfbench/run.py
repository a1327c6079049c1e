#!/usr/bin/env python3
"""Builds the lazyeye CLI and the perfbench binary from source, then runs
one benchmark workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload cad-sweep --seed 1 --seconds 35 --trace 0

Build output goes to $CARGO_TARGET_DIR (default: .bench_build). Cargo's
and perfbench's progress go to standard error; the last line of
standard output is the JSON result. Exits non-zero, printing no result,
when either build fails or the arguments are invalid.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "Cargo.toml")):
        print("perfbench: run from the repository root (no Cargo.toml here)", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", os.path.join(root, "Cargo.toml"), "--bin", "lazyeye"],
        ["--manifest-path", os.path.join(bench, "Cargo.toml"), "--bin", "perfbench"],
    ]
    for args in builds:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *args],
            cwd=root,
            env=env,
            stdout=sys.stderr,
        )
        if build.returncode != 0:
            print(f"perfbench: build failed: cargo build {' '.join(args)}", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    bench_run = subprocess.run(
        [
            os.path.join(release, "perfbench"),
            *sys.argv[1:],
            "--cli",
            os.path.join(release, "lazyeye"),
            "--scratch",
            os.path.join(target, "perfbench"),
        ],
        cwd=root,
        env=env,
    )
    return bench_run.returncode


if __name__ == "__main__":
    sys.exit(main())
