#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Run from the repository root:

    python3 perfbench/smoke_test.py

Runs every workload at minimal length, untraced and traced, and checks
that the result line names every metric of `BENCHMARK.json` with its
unit. Then runs every workload against a deliberately corrupted
reference output and checks that the correctness gate fails the run.
Exits non-zero on the first failed check.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Every workload the benchmark implements, gated in BENCHMARK.json or not.
WORKLOADS = ["sim-large", "battery", "serve-mix"]


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), *extra]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = out.stdout.strip().splitlines()
    assert lines, f"{workload}: no output\n{out.stderr}"
    for row in lines:
        json.loads(row)  # every line, report rows included, is JSON
    return out.returncode, json.loads(lines[-1])


def check_metrics(label, result, spec):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    want = {m["name"]: m["unit"] for m in spec}
    got = result["metrics"]
    assert set(got) == set(want), f"{label}: {sorted(set(got) ^ set(want))}"
    for name, unit in want.items():
        v = got[name]
        assert v["unit"] == unit, f"{label}: {name} unit {v['unit']} != {unit}"
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), \
            f"{label}: {name} = {v['value']}"


def main():
    layers = [
        line.split("\t")[0]
        for line in (ROOT / "perfbench" / "layers.tsv").read_text().splitlines()
        if line and not line.startswith("#")
    ]
    assert layers == [m["name"] for m in SPEC["per_layer"]], \
        "layers.tsv and BENCHMARK.json per_layer disagree"

    for w in WORKLOADS:
        code, result = run(w, 0)
        assert code == 0 and result["correct"] and result["failed"] == 0, (w, result)
        check_metrics(f"{w} untraced", result, SPEC["end_to_end"])
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, (w, m["name"])
        print(f"ok  {w} untraced: {len(result['metrics'])} metrics")

        code, result = run(w, 1)
        assert code == 0 and result["correct"], (w, result)
        check_metrics(f"{w} traced", result, SPEC["per_layer"])
        print(f"ok  {w} traced: {len(result['metrics'])} metrics")

        code, result = run(w, 0, "--corrupt-expected")
        assert code != 0, f"{w}: corrupted reference still exits 0"
        assert not result["correct"] and result["failed"] >= 1, (w, result)
        print(f"ok  {w} corrupted reference: exit {code}, {result['failed']} failed")
    print("smoke test passed")


if __name__ == "__main__":
    main()
