"""Smoke test of the benchmark itself: every workload at a tiny duration.

    python3 perfbench/smoke.py

Run from the root of a checkout.  For each workload, an untimed-sized run
(``--smoke``: the held-out probe deployment, a few sim-seconds) must pass its
pinned counter check and print every end-to-end metric of BENCHMARK.json
with its unit; the traced run must print every per-layer metric, with every
self time >= 0 and ``sim.self_s`` + the other layer self times + unattributed
callback time equal to the traced wall.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1])


def check(workload: str, trace: int, declared: list[dict]) -> None:
    result = run(workload, trace)
    what = f"{workload} trace={trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] and result["failed"] == 0, f"{what}: {result}"
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in declared], f"{what}: metric names"
    for spec in declared:
        got = metrics[spec["name"]]
        assert got["unit"] == spec["unit"], f"{what}: unit of {spec['name']}"
        assert math.isfinite(got["value"]), f"{what}: {spec['name']} = {got['value']}"
    if not trace:
        assert all(m["value"] > 0 for m in metrics.values()), f"{what}: zero metric"
        return
    selfs = {name: m["value"] for name, m in metrics.items() if name.endswith(".self_s")}
    negative = {name: value for name, value in selfs.items() if value < 0}
    assert not negative, f"{what}: negative self times {negative}"
    total = sum(selfs.values()) + metrics["trace.unattributed_s"]["value"]
    wall = metrics["trace.wall_s"]["value"]
    assert math.isclose(total, wall, rel_tol=1e-6), f"{what}: {total} != {wall}"
    print(f"{what}: ok (self times sum to the traced wall {wall:.3f} s)")


def main() -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in benchmark["workloads"]):
        check(workload, 0, benchmark["end_to_end"])
        print(f"{workload} trace=0: ok")
        check(workload, 1, benchmark["per_layer"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
