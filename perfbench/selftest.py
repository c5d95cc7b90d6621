#!/usr/bin/env python3
"""Quick-scale self-test of perfbench.

Usage (from the repository root):  python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench at quick scale
(small simulations, sub-second budget) twice untraced and once traced, and
checks that:
  - the last stdout line is {correct, attempted, failed, metrics} with
    correct = true, failed = 0 and attempted >= 1;
  - the untraced runs emit exactly the end_to_end metrics and the traced run
    exactly the per_layer metrics, each with its declared unit and a finite
    value;
  - the two untraced runs report the same digest.
Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seconds", "0.5", "--trace", str(trace), "--scale", "quick"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"exit {out.returncode}: {out.stderr.strip()[-400:]}")
    info = lines[-2]
    if not info.startswith("perfbench-info "):
        raise RuntimeError(f"no info line before the result: {info!r}")
    return json.loads(info.split(" ", 1)[1]), json.loads(lines[-1])


def check_result(res: dict, metrics: list[dict]) -> list[str]:
    errs = []
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        errs.append(f"result keys {sorted(res)}")
        return errs
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        errs.append(f"correct={res['correct']} failed={res['failed']} "
                    f"attempted={res['attempted']}")
    want = {m["name"]: m["unit"] for m in metrics}
    got = res["metrics"]
    if sorted(got) != sorted(want):
        errs.append(f"metric names differ: missing {sorted(set(want) - set(got))}, "
                    f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errs.append(f"{name}: unit {m.get('unit')!r} != {unit!r}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            errs.append(f"{name}: value {m.get('value')!r}")
    return errs


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = 0
    for w in bench["workloads"]:
        name = w["name"]
        errs = []
        try:
            info_a, res_a = run(name, 0)
            info_b, res_b = run(name, 0)
            _, res_t = run(name, 1)
        except (RuntimeError, ValueError) as e:
            errs.append(str(e))
        else:
            errs += check_result(res_a, bench["end_to_end"])
            errs += check_result(res_b, bench["end_to_end"])
            errs += [f"traced: {e}" for e in check_result(res_t, bench["per_layer"])]
            if info_a["digest"] != info_b["digest"]:
                errs.append(f"digests differ: {info_a['digest']} vs {info_b['digest']}")
        print(f"{'ok  ' if not errs else 'FAIL'} {name}")
        for e in errs:
            print(f"     {e}")
        failures += bool(errs)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
