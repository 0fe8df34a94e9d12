"""Smoke test of the benchmark itself, on a tiny configuration.

    python3 perfbench/smoke.py

Runs the `small` workload (`check thm2.4 --p-range 7..13`, kernel probes at
p = 61, N = 3 only) in both modes and checks that every metric BENCHMARK.json
declares is emitted with its unit (the kernel timings of the larger grid
points, which the tiny run skips, must be declared under the names the full
grid gives them), that the output gate rejects corrupted output, and that a
traced run writes the same report bytes as an untraced one.  Exits 0 when all
of this holds.
"""

from __future__ import annotations

import json
import re
import sys

import run


def corruptions(good: bytes) -> dict[str, bytes]:
    rows = json.loads(good)
    digit = re.search(rb'"unit": (\d)', good)
    bumped = str((int(digit.group(1)) + 1) % 10).encode()
    return {
        "a failing row": good.replace(b'"pass": true', b'"pass": false', 1),
        "a changed digit": good[:digit.start(1)] + bumped + good[digit.end(1):],
        "a dropped row": (json.dumps(rows[1:], indent=2) + "\n").encode(),
        "truncated output": good[: len(good) // 2],
    }


def main() -> int:
    problems = []
    bench = run._load(run.ROOT / "BENCHMARK.json")
    skipped = run.off_grid_metrics(run.WORKLOADS["small"])
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = run.run_one("small", run.DEFAULT_SEED, 1, trace)
        if not result["correct"] or result["failed"]:
            problems.append(f"--trace {trace}: the small workload did not pass its gate")
        declared = {m["name"]: m["unit"] for m in bench[key]}
        for name, unit in declared.items():
            if name in skipped:
                continue
            got = result["metrics"].get(name, {})
            if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                problems.append(f"--trace {trace}: {name} not emitted with unit {unit}")
    undeclared = skipped - {m["name"] for m in bench["per_layer"]}
    if undeclared:
        problems.append(f"kernel timings of the full grid not declared: {sorted(undeclared)}")

    inv = run.WORKLOADS["small"].passes[0]
    gate = run.Gate(run.DEFAULT_SEED)
    with run.Spawner() as sp:
        good = sp.cli(inv, run.DEFAULT_SEED)
        traced = sp.invoke(run.traced_cmd(inv, run.DEFAULT_SEED, run.OUT / "smoke-trace.json",
                                          run.OUT / "smoke-spans.jsonl"))
    if gate.verify(inv, good.code, good.out) is not None:
        problems.append("the gate rejects a correct output")
    for what, bad in corruptions(good.out).items():
        if gate.verify(inv, 0, bad) is None:
            problems.append(f"the gate accepts output with {what}")
        if gate.verify(inv, 0, good.out, expect=bad) is None:
            problems.append(f"the gate accepts bytes that differ from a run with {what}")
    if gate.verify(inv, 1, good.out) is None:
        problems.append("the gate accepts a nonzero exit code")

    if traced.code != 0 or traced.out != good.out:
        problems.append("traced report bytes differ from untraced ones")

    for p in problems:
        print(f"SMOKE FAIL: {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
