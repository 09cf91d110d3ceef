#!/usr/bin/env python3
"""Build uniqd and the perfbench load generator from source, then run one
benchmark pass.

Usage (from the repository root):

    python3 perfbench/run.py --workload oltp --seed 1 --seconds 10 --trace 0

Both binaries are built with cargo into $CARGO_TARGET_DIR (default
.bench_build), with the repository's release profile: perfbench is a
workspace of its own, so the root manifest's [profile.release] keys are
passed to its build as --config overrides, and the in-process passes it
times are compiled like uniqd. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. Exits
non-zero, without a result, when a build or the run fails.
"""

import json
import os
import subprocess
import sys
import tomllib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def profile_overrides(manifest):
    """The manifest's [profile.release] as cargo --config arguments."""
    with open(manifest, "rb") as f:
        profile = tomllib.load(f).get("profile", {}).get("release", {})
    args = []

    def walk(prefix, table):
        for key, value in table.items():
            if isinstance(value, dict):
                walk(f"{prefix}.{key}", value)
            else:
                args.extend(["--config", f"{prefix}.{key}={json.dumps(value)}"])

    walk("profile.release", profile)
    return args


def cargo_build(manifest, extra, env):
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest]
    return subprocess.run(cmd + extra, stdout=sys.stderr, env=env).returncode == 0


def main():
    # cargo resolves a relative CARGO_TARGET_DIR against its working
    # directory, which is this process's.
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    root_manifest = os.path.join(ROOT, "Cargo.toml")
    try:
        profile = profile_overrides(root_manifest)
    except (OSError, tomllib.TOMLDecodeError) as e:
        print(f"perfbench: {root_manifest}: {e}", file=sys.stderr)
        return 1
    built = cargo_build(
        root_manifest, ["-p", "uniq-server", "--bin", "uniqd"], env
    ) and cargo_build(os.path.join(ROOT, "perfbench", "Cargo.toml"), profile, env)
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--uniqd",
        os.path.join(release, "uniqd"),
        "--spans",
        os.path.join(target, "perfbench-spans"),
    ] + sys.argv[1:]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
