#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics over several seeds.

Runs ``perfbench/run.py --trace 0`` once per workload and seed in each
checkout given (by default the one this script sits in), for the run
length BENCHMARK.json sets, and writes one JSON file: every run's metrics,
output check and repetition count, the min / median / max of each
end-to-end metric per checkout and workload, the environment, and the
output hashes each checkout's benchmark pins.

With two checkouts, say a parent commit and a change, every (workload,
seed) runs both back to back and the order flips from one seed to the
next, so the runs form alternated pairs.  The file then also compares the
two per workload and end-to-end metric: how many pairs the second checkout
won, lost and tied in the direction BENCHMARK.json calls better, and the
first checkout's quartiles, the spread a change must clear to claim a
gain.  Each run takes about half a minute, so five seeds over three
workloads and two checkouts take about 15 minutes.  --workloads records
only the named workloads (by default all of them; none when given no names).

--trace also runs ``perfbench/run.py --trace 1`` once per checkout and
workload, at the first seed and back to back between the checkouts, and
stores its per-layer metrics (each the median over the run's traced
repetitions) under ``trace`` beside the workload's end-to-end runs, so
the file shows which layer a change moved.  With two checkouts it prints
each layer's value in both.  A traced run takes about a minute.

--full-census K also runs the whole n=3 census (``quadcolor census 3``,
786,432 records) K times per checkout at jobs 1 and at jobs 2, and K
times as a resume: an untimed ``census 3 --stop-after 786000`` writes the
file, and a timed ``census 3 --resume`` reads its 786,000 records back
and writes the last 432.  The runs alternate between the checkouts in the
same way, and each output file's sha256 is checked against
FULL_N3_SHA256, a pin of this script's own that the file records under
``full_n3_sha256``.  Its runs record the wall time of the timed command,
the CPU time of the census process and its workers, and the printed
summary, under the workload names ``full-n3 jobs=1``, ``full-n3 jobs=2``
and ``full-n3 resume``, and with two checkouts the file compares them as
it does the workloads.  A fresh run takes 2.9-3.3 s on a 2-core x86-64
host, and a resume 7.7 s; the 84 MB output file is deleted after hashing.

--n4-sample K also classifies a fixed sample of 3,000 n=4 systems
(``random.Random(4)``: origin, then H and V masks, as the tests'
random_system draws them) at the default budget, in a fresh process per
run from the checkout's own source, K times per checkout and alternated
in the same way.  Each run records the wall and CPU time of the classify
loop alone, from cold caches, under the workload name ``n4-sample``, and
checks the sha256 of the verdicts' JSON against N4_SAMPLE_SHA256, a pin
of this script's own that the file records under ``n4_sample_sha256``.

Usage:
    python3 scripts/bench_record.py --out BENCH.json
    python3 scripts/bench_record.py PARENT_CHECKOUT . --out BENCH.json --seeds 11 12 13 14 15
    python3 scripts/bench_record.py PARENT_CHECKOUT . --out BENCH.json --workloads census-n3
    python3 scripts/bench_record.py PARENT_CHECKOUT . --out BENCH.json --workloads census-n3 --trace
    python3 scripts/bench_record.py PARENT_CHECKOUT . --out BENCH.json --workloads --full-census 5
    python3 scripts/bench_record.py PARENT_CHECKOUT . --out BENCH.json --workloads --n4-sample 10
"""

from __future__ import annotations

import argparse
import json
import os
import hashlib
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 300  # run.py stops its own children after 170 s
PIN = re.compile(r'^([A-Z_]+_SHA256) = "([0-9a-f]{64})"$', re.MULTILINE)
# The full n=3 census file at the default budget, at every job count.
FULL_N3_SHA256 = "6398d37ae02ca7a0f76099a819d07d4348577d5de2dfc717072b0f64f2ad1fa7"
# The full n=3 census runs by workload name: the arguments of an untimed
# command that writes the file the timed one starts from, if any, and of
# the timed command.
FULL_RUNS = {
    "full-n3 jobs=1": ((), ("--jobs", "1")),
    "full-n3 jobs=2": ((), ("--jobs", "2")),
    "full-n3 resume": (("--stop-after", "786000"), ("--resume",)),
}
# The verdicts of the n=4 sample at the default budget, as one JSON line each.
N4_SAMPLE_SHA256 = "ab3f2fafc9d06be0e1433d30c43fd1f7f2f6b11523f9d818bfd8d9b0bceddc59"
N4_SAMPLE_SIZE = 3000
# Run in a fresh process: classify the sample from cold caches and print
# the loop's wall and CPU time and the verdicts' sha256 as one JSON line.
N4_SAMPLE_CHILD = f"""
import hashlib, json, random, time
import quadcolor as qc
rng = random.Random(4)
sample = [
    qc.ColoringSystem(4, rng.randrange(4), rng.getrandbits(16), rng.getrandbits(16))
    for _ in range({N4_SAMPLE_SIZE})
]
budget = qc.SearchBudget()
wall, cpu = time.perf_counter(), time.process_time()
verdicts = [qc.classify(s, budget) for s in sample]
wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
digest = hashlib.sha256()
for v in verdicts:
    digest.update((json.dumps(qc.verdict_to_json(v), sort_keys=True) + "\\n").encode())
print(json.dumps({{"wall_s": wall, "cpu_s": cpu, "sha256": digest.hexdigest()}}))
"""
PROCESS_METRICS = [
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "cpu_s", "unit": "s", "better": "lower"},
]


def _commit(checkout: Path) -> str:
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def _pinned_hashes(checkout: Path) -> dict:
    """The output hashes the checkout's benchmark checks its runs against."""
    return dict(PIN.findall((checkout / "perfbench" / "workloads.py").read_text()))


def _run(checkout: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"seed": seed, "error": f"no result within {RUN_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "error": f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    result = json.loads(lines[-1])
    info = json.loads(lines[-2])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        # a faster run fits more repetitions into its run length, and the
        # audit's peak RSS grows with them, not with the code
        "reps": info["traced_reps"] if trace else len(info["rep_walls"]),
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _census_command(checkout: Path, out: Path, args: tuple):
    """Run ``quadcolor census 3 --out OUT ARGS`` from the checkout's own
    source: the finished process, or an error message."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    cmd = [sys.executable, "-m", "quadcolor.cli", "census", "3", "--out", str(out), *args]
    try:
        proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"no result within {RUN_TIMEOUT_S} s"
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
    return proc


def _full_census(checkout: Path, key: str) -> dict:
    """One whole n=3 census run of FULL_RUNS from the checkout's own
    source, with its output file's sha256 checked."""
    setup, args = FULL_RUNS[key]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "n3.jsonl"
        if setup:
            proc = _census_command(checkout, out, setup)
            if isinstance(proc, str):
                return {"args": setup, "error": proc}
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        proc = _census_command(checkout, out, args)
        wall = time.perf_counter() - start
        # the census process has reaped its pool workers, so their CPU time is in here
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if isinstance(proc, str):
            return {"args": args, "error": proc}
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {
        "args": args,
        "correct": digest == FULL_N3_SHA256,
        "sha256": digest,
        "summary": json.loads(proc.stdout.strip().splitlines()[-1]),
        "metrics": {"wall_s": wall, "cpu_s": cpu},
    }


def _n4_sample(checkout: Path) -> dict:
    """One classify pass over the n=4 sample from the checkout's own
    source, with its verdicts' sha256 checked."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    try:
        proc = subprocess.run([sys.executable, "-c", N4_SAMPLE_CHILD], cwd=checkout, env=env,
                              capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {RUN_TIMEOUT_S} s"}
    if proc.returncode != 0:
        return {"error": f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"}
    result = json.loads(proc.stdout)
    return {
        "correct": result["sha256"] == N4_SAMPLE_SHA256,
        "sha256": result["sha256"],
        "metrics": {"wall_s": result["wall_s"], "cpu_s": result["cpu_s"]},
    }


def _alternated(checkouts: list, keys: list, pairs: int, measure, label) -> dict:
    """Runs by (checkout number, key): measure(checkout, key, i) for i below
    ``pairs``, every checkout back to back, the order flipping with i."""
    runs = {(c, key): [] for c in range(len(checkouts)) for key in keys}
    for key in keys:
        for i in range(pairs):
            order = list(range(len(checkouts)))
            if i % 2:
                order.reverse()
            for position, c in enumerate(order):
                run = measure(checkouts[c], key, i)
                run["position"] = position
                runs[c, key].append(run)
                if "error" in run:
                    outcome = run["error"]
                elif "wall_s" in run["metrics"]:
                    outcome = f"wall_s {run['metrics']['wall_s']:.4g}, correct {run['correct']}"
                else:
                    outcome = f"traced, correct {run['correct']}"
                print(f"{label(key, i)} checkout {c}: {outcome}", flush=True)
    return runs


def _summary(runs: list, metrics: list) -> dict:
    done = [run for run in runs if "metrics" in run]
    out = {}
    for m in metrics:
        values = [run["metrics"][m["name"]] for run in done]
        if values:
            out[m["name"]] = {
                "unit": m["unit"],
                "min": min(values),
                "median": statistics.median(values),
                "max": max(values),
            }
    return out


def _comparison(parent: list, change: list, metrics: list) -> dict:
    """Per metric: the pairs (runs of one seed) the change won, lost and
    tied, and the parent's quartiles (statistics.quantiles, inclusive)."""
    out = {}
    for m in metrics:
        name = m["name"]
        pairs = [
            (a["metrics"][name], b["metrics"][name])
            for a, b in zip(parent, change)
            if "metrics" in a and "metrics" in b
        ]
        if not pairs:
            continue
        sign = 1 if m["better"] == "lower" else -1
        diffs = [sign * (a - b) for a, b in pairs]
        values = [a for a, _ in pairs]
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        else:
            q1 = q3 = values[0]
        out[name] = {
            "better": m["better"],
            "won": sum(d > 0 for d in diffs),
            "lost": sum(d < 0 for d in diffs),
            "tied": sum(d == 0 for d in diffs),
            "parent_quartiles": [q1, q3],
            "parent_median": statistics.median(values),
            "change_median": statistics.median(b for _, b in pairs),
        }
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkouts", nargs="*", type=Path, default=[ROOT],
                    help="checkouts to measure, each with its own perfbench/ (default: this one)")
    ap.add_argument("--out", required=True, type=Path, help="JSON file to write")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 4, 5])
    names = [w["name"] for w in spec["workloads"]]
    ap.add_argument("--workloads", nargs="*", choices=names, default=names, metavar="W",
                    help=f"workloads to record, from {', '.join(names)} (default: all)")
    ap.add_argument("--full-census", type=int, default=0, metavar="K",
                    help="also run the whole n=3 census K times per checkout at jobs 1 and 2, and as a resume")
    ap.add_argument("--n4-sample", type=int, default=0, metavar="K",
                    help=f"also classify the seeded {N4_SAMPLE_SIZE:,}-system n=4 sample K times per checkout")
    ap.add_argument("--trace", action="store_true",
                    help="also record each workload's per-layer metrics from one traced run per checkout")
    args = ap.parse_args()
    workloads = [w for w in names if w in args.workloads]
    seconds = spec["run_seconds"]
    checkouts = [path.resolve() for path in args.checkouts]

    runs = _alternated(
        checkouts, workloads, len(args.seeds),
        lambda checkout, w, i: _run(checkout, w, args.seeds[i], seconds),
        lambda w, i: f"{w} seed {args.seeds[i]}",
    )
    traced = _alternated(
        checkouts, workloads if args.trace else [], 1,
        lambda checkout, w, i: _run(checkout, w, args.seeds[0], seconds, trace=1),
        lambda w, i: f"{w} seed {args.seeds[0]} traced",
    )
    full_runs = list(FULL_RUNS) if args.full_census else []
    full = _alternated(
        checkouts, full_runs, args.full_census,
        lambda checkout, key, i: _full_census(checkout, key),
        lambda key, i: f"{key} run {i + 1}",
    )
    sampled = _alternated(
        checkouts, ["n4-sample"] if args.n4_sample else [], args.n4_sample,
        lambda checkout, key, i: _n4_sample(checkout),
        lambda key, i: f"{key} run {i + 1}",
    )
    measured = [(w, runs, spec["end_to_end"]) for w in workloads]
    measured += [(key, full, PROCESS_METRICS) for key in full_runs]
    if args.n4_sample:
        measured.append(("n4-sample", sampled, PROCESS_METRICS))

    record = {
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": (
            "perfbench/run.py --trace 0" + ("; trace: perfbench/run.py --trace 1" if args.trace else "")
            + "; full-n3: python -m quadcolor.cli census 3 --jobs J"
            + ", or --stop-after 786000 untimed, then --resume"
            + "; n4-sample: python -c N4_SAMPLE_CHILD"
        ),
        "seconds": seconds,
        "seeds": args.seeds,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpus_usable": len(os.sched_getaffinity(0)),
        },
        "checkouts": [
            {
                "commit": _commit(checkout),
                "pinned_hashes": _pinned_hashes(checkout),
                "workloads": {
                    w: {"summary": _summary(r[c, w], metrics), "runs": r[c, w]}
                    for w, r, metrics in measured
                },
            }
            for c, checkout in enumerate(checkouts)
        ],
    }
    for (c, w), r in traced.items():
        # one run: its metrics are the medians of its traced repetitions
        record["checkouts"][c]["workloads"][w]["trace"] = r[0]
    if full_runs:
        # this script's own pin, checked against every checkout's output
        record["full_n3_sha256"] = FULL_N3_SHA256
    if args.n4_sample:
        record["n4_sample_sha256"] = N4_SAMPLE_SHA256
    if len(checkouts) == 2:
        record["comparison"] = {w: _comparison(r[0, w], r[1, w], metrics) for w, r, metrics in measured}
        for w, metrics in record["comparison"].items():
            for name, c in metrics.items():
                q1, q3 = c["parent_quartiles"]
                print(
                    f"{w} {name}: {c['parent_median']:.4g} ({q1:.4g}-{q3:.4g}) -> "
                    f"{c['change_median']:.4g}, won {c['won']} lost {c['lost']} tied {c['tied']}"
                )
        for w in workloads if args.trace else []:
            layers = [traced[c, w][0].get("metrics") for c in range(2)]
            for m in spec["per_layer"] if all(layers) else []:
                name = m["name"]
                print(f"{w} traced {name}: {layers[0][name]:.4g} -> {layers[1][name]:.4g} {m['unit']}")
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    failed = sum(
        1 for r in (*runs.values(), *traced.values(), *full.values(), *sampled.values()) for run in r if not run.get("correct")
    )
    print(f"wrote {args.out}; {failed} run(s) failed or were incorrect")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
