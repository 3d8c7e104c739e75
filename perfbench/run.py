#!/usr/bin/env python3
"""Build the benchmark and the `nfi` binary from source, then run one workload.

Usage (from anywhere; paths resolve against the repository root):

    python3 perfbench/run.py --workload <campaign_cold|campaign_edit|serve_mixed|nl_session> \
        --seed <n> --seconds <s> --trace <0|1>

Both release builds go to $CARGO_TARGET_DIR (default `.bench_build` at the
repository root); state dirs and logs go to `.bench_work`. Build output goes
to standard error, so the last line of standard output is the benchmark's
result object. Exits non-zero, without a result, when the repository's
sources are missing or a build or the workload fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    os.chdir(ROOT)
    for needed in ("Cargo.toml", "crates", os.path.join("perfbench", "Cargo.toml")):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = (
        ["--manifest-path", "Cargo.toml", "--bin", "nfi"],
        ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    )
    for args in builds:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", *args],
            stdout=sys.stderr,
            env=env,
        )
        if build.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return build.returncode or 1
    release = os.path.join(target, "release")
    bench = subprocess.run(
        [
            os.path.join(release, "perfbench"),
            *sys.argv[1:],
            "--nfi",
            os.path.join(release, "nfi"),
            "--work-dir",
            os.path.join(ROOT, ".bench_work"),
        ],
        env=env,
    )
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
