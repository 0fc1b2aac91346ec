#!/usr/bin/env python3
"""Build minex-perfbench from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <round-loop|session-mix|serve-mix> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default perfbench/target); build output goes to
standard error, so the last line of standard output is the benchmark's
JSON result. The exit status is the benchmark's, or the build's when the
build fails (for instance when the repository's crates are not present).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def git_revision():
    """The commit of the checkout, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    if len(top) != 2 or os.path.realpath(top[0]) != os.path.realpath(ROOT):
        return "unknown"
    return top[1]


def main():
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "minex-perfbench")
    bench = subprocess.run([binary, *sys.argv[1:], "--rev", git_revision()])
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
