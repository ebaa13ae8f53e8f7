"""Smoke test of the benchmark itself, at tiny input sizes.

    python3 perfbench/smoke.py

Asserts that every workload, traced and untraced, emits exactly the metrics
BENCHMARK.json names, each with its unit and a finite value; that a corrupted
output (the CLI's ``--inject-fault sigma`` hook on verify) is counted as a
failed op and marks the run incorrect instead of being raised or hidden; and
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class SmokeFailure(Exception):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SmokeFailure(message)


def run(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--seed", "3", "--seconds", "0.5", "--tiny", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170)


def result(*args: str) -> dict:
    proc = run(*args)
    expect(proc.returncode == 0, f"run.py {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[group]}
        for workload in (w["name"] for w in spec["workloads"]):
            res = result("--workload", workload, "--trace", str(trace))
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: result keys {sorted(res)}")
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            expect(got == want, f"{workload} trace={trace}: metrics {got}, want {want}")
            for name, m in res["metrics"].items():
                expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
                       f"{workload}: {name} = {m['value']!r}")
            expect(res["correct"] is True and res["attempted"] >= 1,
                   f"{workload} trace={trace}: {res['correct']=}, {res['attempted']=}")

    res = result("--workload", "verify", "--trace", "0", "--inject-fault", "sigma")
    expect(res["attempted"] > 0 and res["failed"] == res["attempted"],
           f"injected fault: {res['failed']} of {res['attempted']} ops failed")
    expect(res["correct"] is False, "injected fault: run still marked correct")

    bare = HERE / "work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run("--workload", "scan", "--trace", "0", root=bare)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"without sources: exit {proc.returncode}, output {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SmokeFailure as exc:
        sys.stderr.write(f"smoke test failed: {exc}\n")
        sys.exit(1)
