#!/usr/bin/env python3
"""Build perfbench from the checkout's sources and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload whole-noise-2048 --seed 1 --seconds 20 --trace 0

Every argument is passed to the perfbench binary unchanged. The build goes
to $CARGO_TARGET_DIR (default: .bench_build in the working directory), and
its output goes to stderr, so the binary's result line stays the last line
of stdout. Exits non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(here, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    try:
        ran = subprocess.run([exe, *sys.argv[1:]], env=env, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
