#!/usr/bin/env python3
"""Build `gbc` and the benchmark from source, then run one measurement.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Both binaries are built in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`). Build output goes to stderr; the benchmark's
stdout, whose last line is the JSON result, passes through unchanged.
The exit status is the benchmark's, or 1 when a build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path"]
    builds = [
        cargo + [os.path.join(ROOT, "Cargo.toml"), "-p", "gbc-cli"],
        cargo + [os.path.join(ROOT, "perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    bench = os.path.join(target, "release", "perfbench")
    return subprocess.run([bench] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
