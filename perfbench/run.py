#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

    python3 perfbench/run.py --workload fit-http|serve-http \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the release `mccatch` binary
and the `perfbench` package (into $CARGO_TARGET_DIR, default `.bench_build`),
then runs `perfbench`, whose last stdout line is the JSON result. Build
output goes to stderr. Exits non-zero, printing no result, when the sources
are missing or do not build.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fit-http", "serve-http")


def build(env):
    """Builds both binaries; returns the target directory or None."""
    for manifest, extra in (
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "mccatch-cli"]),
        (os.path.join(HERE, "Cargo.toml"), []),
    ):
        if not os.path.isfile(manifest):
            print(f"run.py: missing {manifest}", file=sys.stderr)
            return None
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest] + extra
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return env["CARGO_TARGET_DIR"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    env = os.environ.copy()
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    target = build(env)
    if target is None:
        return 2
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--root", ROOT, "--cli", os.path.join(release, "mccatch")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
