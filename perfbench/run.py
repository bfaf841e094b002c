"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each measurement happens in a fresh
process (child.py), so memory peaks and caches do not leak between runs.

--trace 0 sets the workload up SETUP_SAMPLES times, measures it untraced
for S seconds and reports the end-to-end metrics of BENCHMARK.json.
--trace 1 measures it untraced again (for the pool's CPU accounting), then
traces it and reports the per-layer metrics, tracing overhead included.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  The lines before it give each metric and the run's environment,
which is also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170


class ChildFailed(Exception):
    pass


def _child(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    # its own session, so that a stuck child and its pool go down together
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} process ran past the {TIME_LIMIT_S} s limit") from None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} process exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _percentile(values: list, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _medians(rows: list) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def _counts(*children) -> tuple:
    reps = [rep for child in children for rep in child["reps"]]
    return sum(rep["attempted"] for rep in reps), sum(rep["failed"] for rep in reps)


def end_to_end(args, deadline: float) -> tuple:
    setups = [_child(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    measured = _child(args, "measure", deadline)
    setups.append(measured["setup_s"])
    reps = measured["reps"]
    # Every repetition times the same units in the same order.  Each
    # sample is scaled to the speed probes' quiet speed; a unit's time is
    # the median or the fastest of its samples, as the workload says (see
    # RATIONALE.md).
    pick = {"median": statistics.median, "min": min}[measured["info"]["unit_pick"]]
    unit_times = [
        pick([t for samples in unit for t in samples]) for unit in zip(*(rep["units"] for rep in reps))
    ]
    per_unit = reps[0]["records_per_unit"]
    latencies = [t / per_unit for t in unit_times]
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(unit_times),
        "record_p50_ms": 1000 * _percentile(latencies, 50),
        "record_p95_ms": 1000 * _percentile(latencies, 95),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    info = {
        **measured["info"],
        "rep_walls": [rep["wall"] for rep in reps],
        "units_per_rep": len(unit_times),
        "records_per_unit": per_unit,
        "setup_samples": len(setups),
    }
    return values, _counts(measured), info


def per_layer(args, deadline: float) -> tuple:
    measured = _child(args, "measure", deadline)
    traced = _child(args, "trace", deadline)
    nproc = len(os.sched_getaffinity(0))
    pool = _medians([
        {
            "pool.parent_cpu_s": rep["parent_cpu"],
            "pool.worker_cpu_s": rep["worker_cpu"],
            "pool.cpu_util": (rep["parent_cpu"] + rep["worker_cpu"]) / (rep["wall"] * nproc),
        }
        for rep in measured["reps"]
    ])
    with_spans = [rep for rep in traced["reps"] if rep["layers"] is not None]
    without = [rep for rep in traced["reps"] if rep["layers"] is None]
    values = {**pool, **_medians([rep["layers"] for rep in with_spans])}
    values["trace.overhead_s"] = statistics.median(rep["wall"] for rep in with_spans) - statistics.median(
        rep["wall"] for rep in without
    )
    info = {
        **traced["info"],
        "untraced_jobs": measured["info"]["jobs"],
        "untraced_reps": len(measured["reps"]),
        "traced_reps": len(with_spans),
        "spans": traced["spans"],
    }
    return values, _counts(measured, traced), info


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "quadcolor" / "__init__.py").is_file():
        print(f"no quadcolor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # a terminated run still takes its child process group down (see _child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    deadline = time.monotonic() + TIME_LIMIT_S
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        values, (attempted, failed), info = (per_layer if args.trace else end_to_end)(args, deadline)
    except ChildFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "failed_frac": failed / attempted,
        **info,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, **result}, indent=1)
    )
    for name, m in metrics.items():
        print(f"{name:32} {m['value']:.6g} {m['unit']}")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
