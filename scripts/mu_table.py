#!/usr/bin/env python3
"""Census sweep: classify every system at each requested color count and
print the resulting bound table.

The two-color run finishes in under a second.  Three colors is feasible
on a desk machine: 786,432 systems in 131,584 isomorphism classes.  A
census process classifies each class it meets once, so at jobs=1 every
class is classified exactly once; the run took about 2.9 s at jobs=1
(Python 3.11, one core of a 2-core x86-64 box).  Expect unknowns: some
systems color the quadrant without any torus doing so through the
origin, and no period cap closes those.

Usage:
    python scripts/mu_table.py 1 2 --out-dir runs/
    python scripts/mu_table.py 2 --depth-cap 48 --period-cap 5 --jobs 8
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from quadcolor import SearchBudget, run_census, summary_to_json, system_at


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("colors", type=int, nargs="+", help="color counts to sweep")
    ap.add_argument("--depth-cap", type=int, default=32)
    ap.add_argument("--period-cap", type=int, default=4)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--out-dir", default=None, help="also write JSONL record files here")
    args = ap.parse_args()
    budget = SearchBudget(depth_cap=args.depth_cap, period_cap=args.period_cap)

    header = f"{'n':>2} {'systems':>8} {'bounded':>8} {'colors all':>10} {'unknown':>8} {'bound':>6} {'champion':>40}"
    print(header)
    print("-" * len(header))
    for n in args.colors:
        out_path = None
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            out_path = os.path.join(args.out_dir, f"census-n{n}.jsonl")
        t0 = time.perf_counter()
        summary = run_census(n, budget, jobs=args.jobs, out_path=out_path)
        elapsed = time.perf_counter() - t0
        bound = f"={summary.mu_exact}" if summary.mu_exact is not None else f">={summary.mu_lower_bound}"
        champ = "-"
        if summary.champion is not None:
            system = system_at(n, summary.champion)
            champ = f"#{summary.champion}: H={sorted(system.h_pairs())} V={sorted(system.v_pairs())}"
        print(
            f"{n:>2} {summary.total_systems:>8} {summary.bounded:>8} "
            f"{summary.has_coloring:>10} {summary.unknown:>8} {bound:>6} {champ:>40}"
        )
        print(f"   ({elapsed:.2f} s)  {summary_to_json(summary)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
