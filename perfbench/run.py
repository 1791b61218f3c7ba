#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

`--trace 0` (the default) runs the end-to-end binary, `--trace 1` the
traced one. The binaries build with cargo into $CARGO_TARGET_DIR (default:
perfbench/target); result files go to perfbench/results/. The last line of
standard output is the result as one JSON object. Build output goes to
standard error, and a failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    manifest = os.path.join(HERE, "Cargo.toml")
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    )
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", manifest, "--target-dir", target,
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    traced = any(a == "--trace" and b == "1" for a, b in zip(argv, argv[1:]))
    binary = os.path.join(target, "release", "perfbench-trace" if traced else "perfbench")
    run = subprocess.run(
        [binary, *argv, "--results", os.path.join(HERE, "results")]
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
