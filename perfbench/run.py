"""graphscatter benchmark: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload scan|orbits|trace|verify|all \\
        --seed N --seconds S --trace 0|1

Each workload runs in its own process (workload.py) with BLAS and OpenMP
pinned to one thread, calling the package's public functions from the
checkout's ``src``.  Every op's output is checked against an oracle; a failed
op is counted, never raised.  Passes over the workload's ops repeat until
``--seconds`` is spent.

Times are adjusted for the host's speed: a fixed probe kernel, independent
of the package, is timed between ops, and an op's time is divided by the
probe's slowdown around it (``SpeedProbe`` in workload.py says why).  The
summary prints the measured times and slowdowns beside the adjusted ones.

With ``--trace 0`` the result holds the end-to-end metrics:

- ``wall_s``: time-to-solution of one pass: the sum over ops of each op's
  median adjusted time across passes, checks excluded.
- ``setup_s``: process start to inputs ready (imports, seeded inputs, graph
  files), adjusted by a probe run right after; median over one full run and
  four set-up-only processes.
- ``peak_rss_mb``: ``ru_maxrss`` of the workload process after set-up and
  its first pass.

``attempted`` and ``failed`` count op runs; their ratio is ``fail_frac``,
printed with the summary.  ``correct`` is false when an op fails in a way
that matches no known defect of the package (see workload.py): the zero scan
miscounting near-degenerate zeros, which the two K4 1+delta scans always hit,
and the identity suite's functional-equation check at some sample points.

With ``--trace 1`` untraced and traced passes alternate; the result holds
the per-layer metrics of a traced pass and ``bench.tracing_overhead_frac``,
and the spans go to ``perfbench/out/spans-<workload>.json``.

Workloads (BENCHMARK.json says why each was chosen):

- scan: ``secular_zero_scan`` on a standard and a weighted (w ~ U[0.5, 2])
  random connected graph with V=24, B=40, and on K4 with one edge weight
  1 + delta, delta = 1e-3 and 1e-6.
- orbits: full K4 catalog to N=15, full Petersen to 12 and no-backtrack
  Petersen to 20, with their count tables, tr U^n for n <= 12, the spectral
  zeta product at N=12 and the Ihara product.
- trace: ``trace_formula_report`` on K4, epsilon 0.3, 49 points on [-1, 7]
  shifted by a seeded sub-step offset, N=14, R=6.
- verify: ``cli.main(["verify", ...])`` on the eight acceptance fixtures,
  each with four identity-suite seeds.

The seed draws the scan graphs at fixed (V, B); for orbits, trace and
verify it draws only evaluation points, the grid offset and the identity
suite's seeds, so the work per run is the same for every seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan", "orbits", "trace", "verify")
SETUP_PROBES = 4
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def git_state() -> dict:
    """Commit and dirty flag, when the checkout is a git repository."""
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit, "dirty": bool(status.strip())}


def run_child(args: list[str], timeout: float) -> tuple[int, dict]:
    """Start workload.py; return its start time and its JSON report."""
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    start_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no report")
    return start_ns, json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, extra: list[str]) -> dict:
    workdir = HERE / "work" / f"{name}-{os.getpid()}"
    base = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir), *extra]
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        setups = []
        if not trace:
            for _ in range(SETUP_PROBES):
                start, rep = run_child([*base, "--seconds", "0", "--setup-only"],
                                       deadline - time.monotonic())
                setups.append(((rep["ready_ns"] - start) / 1e9, rep["setup_slowdown"]))
        run_args = [*base, "--seconds", str(seconds), "--trace", str(int(trace))]
        if trace:
            (HERE / "out").mkdir(exist_ok=True)
            run_args += ["--spans-out", str(HERE / "out" / f"spans-{name}.json")]
        start, rep = run_child(run_args, deadline - time.monotonic())
        setups.append(((rep["ready_ns"] - start) / 1e9, rep["setup_slowdown"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rep["env"].update(git_state(), seed=seed, workload=name)
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in rep["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": rep["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(t / s for t, s in setups), "unit": "s"},
            "peak_rss_mb": {"value": rep["peak_rss_mb"], "unit": "MB"},
        }
    return {"report": rep, "setups": setups, "metrics": metrics}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes_computed"):
        return "bytes"
    if name.endswith(("_frac", "_per_graph", "_per_eigenvalue")):
        return "ratio"
    return "count"


def summarize(name: str, res: dict) -> None:
    rep = res["report"]
    print(json.dumps({"env": rep["env"]}))
    for op in rep["ops"]:
        tag = "ok" if op["ok"] else ("FAILED (known defect)" if op["known_defect"] else "FAILED")
        print(f"{name}: op {op['name']} ({op['adjusted_s']:.4f} s adjusted, "
              f"{op['measured_s']:.4f} s measured): {tag}: {op['info']}")
    passes = rep["pass_wall_s"]
    print(f"{name}: {rep['passes']} untraced passes of {min(passes):.4f} to "
          f"{max(passes):.4f} s measured"
          + (f", {rep['traced_passes']} traced" if rep["traced_passes"] else ""))
    print(f"{name}: measured wall time {rep['measured_wall_s']:.4f} s at median probe "
          f"slowdown {rep['slowdown']:.4f}")
    print(f"{name}: setup samples (measured s, probe slowdown) "
          + ", ".join(f"({t:.4f}, {s:.4f})" for t, s in res["setups"]))
    for layer, share in sorted(rep.get("layer_shares", {}).items(), key=lambda kv: -kv[1]):
        if share == 0.0:
            continue
        print(f"{name}: self-time share of traced op time: {layer} {share:.4f}")
    for metric, m in res["metrics"].items():
        print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
    frac = rep["failed"] / rep["attempted"]
    print(f"{name}: fail_frac = {rep['failed']}/{rep['attempted']} = {frac:.4g} ratio")


def result_line(res: dict) -> dict:
    rep = res["report"]
    return {
        "correct": rep["unexpected_failed"] == 0,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": res["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs (smoke test)")
    parser.add_argument("--inject-fault", choices=("sigma",),
                        help="corrupt one sigma entry in the verify workload (smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "graphscatter" / "__init__.py").is_file():
        sys.stderr.write(f"no graphscatter sources under {ROOT / 'src'}\n")
        return 2
    extra = ["--tiny"] if args.tiny else []
    if args.inject_fault:
        extra += ["--inject-fault", args.inject_fault]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            res = run_workload(name, args.seed, args.seconds, bool(args.trace), extra)
            summarize(name, res)
            results[name] = result_line(res)
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
