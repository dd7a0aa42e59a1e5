#!/usr/bin/env python3
"""Build airbench from source and run one workload.

    python3 airbench/run.py --workload <serve_steady|serve_replan|plan_sweep> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its own
(airbench/Cargo.toml) that depends on the repository's crates by path; it
is built in release mode into $CARGO_TARGET_DIR (default airbench/target).
Cargo's output goes to stderr; the benchmark's last stdout line is the JSON
result. The exit code is the benchmark's, or the build's if that fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target"))
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
        check=False,
    )
    if build.returncode != 0:
        print("airbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(target, "release", "airbench")
    return subprocess.run([exe, *sys.argv[1:]], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
