#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <boot_storm|page_rw|cached_share> \\
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds the repository's crates from source, offline, in release mode.
Cargo's output goes to standard error; standard output carries only the
benchmark's report, whose last line is the JSON result. Spans of a
traced run are written under perfbench/out/. The exit code is non-zero,
and no result is printed, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1

    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    exe = os.path.join(ROOT, target, "release", "perfbench")
    spans = os.path.join(HERE, "out")
    os.makedirs(spans, exist_ok=True)
    run = subprocess.run([exe, *sys.argv[1:], "--spans", spans], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
