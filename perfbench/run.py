#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <sim-large|battery|serve-mix> \
        --seed <n> --seconds <s> --trace <0|1> [--corrupt-expected]

Builds the `perfbench` package in release mode (into `$CARGO_TARGET_DIR`,
default `.bench_build` under the repository root), then runs it. Every
line the benchmark prints before the last is a report row; the last line
is the result object. The exit code is the benchmark's: non-zero when the
build fails (no result is printed then) or a correctness check fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def source_stamp():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
        return "git-" + out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "perfbench"):
        files += sorted(
            p for p in (ROOT / top).rglob("*")
            if p.is_file() and "target" not in p.parts
        )
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return "tree-" + h.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["sim-large", "battery", "serve-mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--corrupt-expected", action="store_true",
                    help="alter one reference output; the run must then fail")
    args = ap.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        stdout=sys.stderr, env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3

    scratch = target / "perfbench-data"
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--scratch", str(scratch),
        "--commit", source_stamp(),
        "--rustc", rustc_version(),
    ]
    if args.corrupt_expected:
        cmd.append("--corrupt-expected")
    sys.stdout.flush()
    try:
        return subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
