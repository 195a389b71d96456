#!/usr/bin/env python3
"""Build and run the DVC campaign benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary from source (release, offline) into
$CARGO_TARGET_DIR (default: perfbench/target), then runs it with the same
arguments. When `perfbench/baselines.json` records a digest for this
workload and seed, the binary is asked to compare against it (the digest
covers one pass, so it does not depend on `--seconds`). Traced runs write
their spans under the target directory. The binary's output, ending in one
JSON line, and its exit code pass through unchanged.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def recorded_digest(workload, seed):
    try:
        with open(os.path.join(HERE, "baselines.json")) as f:
            rec = json.load(f)
    except (OSError, ValueError):
        return None
    return rec.get("digests", {}).get(workload, {}).get(seed)


def main():
    argv = sys.argv[1:]
    opts = dict(zip(argv[::2], argv[1::2]))
    target = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    )
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [os.path.join(target, "release", "perfbench")] + argv
    digest = recorded_digest(opts.get("--workload"), opts.get("--seed"))
    if digest:
        cmd += ["--expect-digest", digest]
    if opts.get("--trace") == "1":
        name = "{}-seed{}.json".format(opts.get("--workload"), opts.get("--seed"))
        cmd += ["--spans", os.path.join(target, "perfbench-spans", name)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
