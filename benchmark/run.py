#!/usr/bin/env python3
"""Build the repository benchmark from source and run one measurement.

Usage, from the repository root:

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `benchmark/` (a cargo package of its own that depends on the
repository's crates by path) in release mode, then runs it with the same
arguments. Build output goes to stderr; the benchmark's last stdout line
is the result object. Exits non-zero, without a result, if the build
fails. `CARGO_TARGET_DIR` selects the build directory (default
`benchmark/target`).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "logp-repo-bench")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
