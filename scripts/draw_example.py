#!/usr/bin/env python3
"""Draw the bundled 13-color example: its 55-tile triangle as shipped,
and optionally the least chain grown out to a longer horizon.

Writes triangle.svg / triangle.ppm (and chain.svg when --horizon is
given) into --out-dir.

Usage:
    python scripts/draw_example.py --out-dir out/
    python scripts/draw_example.py --out-dir out/ --horizon 120 --scale 4
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from quadcolor import TriangleColoring, build_chain, render_triangle
from quadcolor.fixtures import example_system, example_triangle


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default="out")
    ap.add_argument("--scale", type=int, default=3)
    ap.add_argument("--horizon", type=int, default=None,
                    help="also grow the least chain to this length and draw it")
    args = ap.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    triangle = example_triangle()
    for fmt in ("svg", "ppm"):
        path = os.path.join(args.out_dir, f"triangle.{fmt}")
        with open(path, "wb") as fh:
            fh.write(render_triangle(triangle, fmt=fmt, scale=args.scale))
        print(f"wrote {path}")

    if args.horizon is not None:
        system = example_system()
        t0 = time.perf_counter()
        chain = build_chain(system, args.horizon)
        elapsed = time.perf_counter() - t0
        if not isinstance(chain, tuple):
            print(f"no chain of length {args.horizon}: {chain}")
            return 1
        print(f"chain of length {args.horizon} in {elapsed:.2f} s")
        path = os.path.join(args.out_dir, "chain.svg")
        with open(path, "wb") as fh:
            fh.write(render_triangle(TriangleColoring(chain), fmt="svg", scale=args.scale))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
