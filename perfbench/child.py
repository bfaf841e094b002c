"""One fresh process of a benchmark run; run.py starts it and reads its result.

    python3 perfbench/child.py --workload W --seed N --seconds S --mode M

Modes:
  setup    set the workload up (import, fixture load, sample generation)
           and report how long that took, scaled to the speed probes'
           quiet speed;
  measure  set up, then repeat the workload untraced for S seconds, with a
           speed probe on each core it uses (speedref.py);
  trace    set up, then alternate untraced and traced repetitions for S
           seconds, and write the spans to perfbench/out/.

Prints one JSON object on its last stdout line.
"""

from time import perf_counter

SETUP_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MIN_REPS = 2


class Timed:
    """Wall time and parent/children CPU time of one timed section."""

    def __enter__(self):
        self._cpu0 = _cpu()
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = perf_counter() - self._t0
        parent, workers = _cpu()
        self.parent_cpu = parent - self._cpu0[0]
        self.worker_cpu = workers - self._cpu0[1]
        return False


def _cpu() -> tuple:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children is the largest reaped child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _rep(workload, tracer=None) -> dict:
    timed = Timed()
    if tracer is not None:
        tracer.install()
    try:
        units, per_unit, attempted, failed = workload.run_once(timed)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {
        "wall": timed.wall,
        "parent_cpu": timed.parent_cpu,
        "worker_cpu": timed.worker_cpu,
        "units": units,
        "records_per_unit": per_unit,
        "attempted": attempted,
        "failed": failed,
        "layers": tracer.snapshot() if tracer is not None else None,
    }


def _repeat(seconds: float, step) -> list:
    """Call step(i) until the next call would end past ``seconds``; at least
    MIN_REPS times."""
    reps = []
    start = perf_counter()
    while True:
        reps.append(step(len(reps)))
        elapsed = perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + reps[-1]["wall"] > seconds:
            return reps


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    args = ap.parse_args()

    if not (ROOT / "src" / "quadcolor" / "__init__.py").is_file():
        print(f"no quadcolor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    from speedref import SpeedReference, scale_now

    OUT_DIR.mkdir(exist_ok=True)
    cpus = sorted(os.sched_getaffinity(0))
    # census-n3 runs its pool at two workers untraced, and at one when
    # traced so that every call is visible in this process
    jobs = 1 if args.mode == "trace" else min(2, len(cpus))
    speed = SpeedReference(cpus[:jobs]) if args.mode == "measure" else None
    workload = workloads.WORKLOADS[args.workload](args.seed, jobs, str(OUT_DIR), speed)
    setup_s = scale_now(perf_counter() - SETUP_START)
    result = {"setup_s": setup_s, "info": {**workloads.SETTINGS, "jobs": jobs, "unit_pick": workload.unit_pick}}
    if args.mode == "measure":
        with speed or nullcontext():
            result["reps"] = _repeat(args.seconds, lambda i: _rep(workload))
    elif args.mode == "trace":
        from tracing import Tracer

        tracer = Tracer(workloads.LAYERS)
        reps = _repeat(args.seconds, lambda i: _rep(workload, tracer if i % 2 else None))
        tracer.write(str(OUT_DIR / f"spans-{args.workload}.json"))
        for rep in reps:
            if rep["layers"] is not None:
                rep["layers"] = workloads.layer_metrics(rep["layers"])
        result["reps"] = reps
        result["spans"] = len(tracer.span_start)
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
