#!/usr/bin/env python3
"""Self-check of the benchmark itself, at tiny scale (seconds, after the build).

Run from the root of a checkout:

    python3 botbench/selfcheck.py

Runs every workload once end to end (those BENCHMARK.json declares and
the ones kept for hand runs) and one traced round, and asserts that each
run is correct (every output matched its per-seed reference, traced
replays included) and that the printed metric names and units are
exactly the ones BENCHMARK.json declares.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import WORKLOADS  # noqa: E402


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join("botbench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--scale", "tiny"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(result, declared, label):
    assert result["correct"] and result["failed"] == 0, f"{label}: {result}"
    assert result["attempted"] >= 1, label
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    want = {metric["name"]: metric["unit"] for metric in declared}
    assert got == want, f"{label}: metric names/units differ from BENCHMARK.json:\n" \
        f"  missing {sorted(set(want) - set(got))}\n  extra {sorted(set(got) - set(want))}\n" \
        f"  units {sorted((k, got[k], want[k]) for k in got.keys() & want.keys() if got[k] != want[k])}"
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), f"{label}: {name} is not a number"


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    for name in WORKLOADS:
        check(run(name, 0), spec["end_to_end"], f"{name} --trace 0")
        print(f"ok  {name} end to end")
    # One traced run replays every workload.
    check(run(spec["workloads"][0]["name"], 1), spec["per_layer"], "--trace 1")
    print("ok  traced replay of every workload")


if __name__ == "__main__":
    main()
