#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default: .bench_build in the checkout); scratch files (checkpoints,
artifacts, span dumps, the count ledger) go to .perfbench_work in the
checkout. Cargo's output goes to standard error; the benchmark's last
line of standard output is its JSON result. Exits non-zero, printing no
result, when the build fails or no timed pass could run.
"""

import os
import subprocess
import sys


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    manifest = os.path.join(here, "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    target = os.path.abspath(os.path.join(root, target))
    env = dict(os.environ, CARGO_TARGET_DIR=target)

    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        *argv,
        "--work",
        os.path.join(root, ".perfbench_work"),
        "--worker",
        os.path.join(release, "sweep_worker"),
    ]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
