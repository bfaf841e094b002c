"""Command line front end.

Exit codes follow the usual grep convention so shell scripts can branch on
the mathematical answer: 0 = accepted / found / isomorphic, 1 = rejected /
unreachable / not isomorphic, 2 = the input never parsed in the first
place.  Malformed input is never reported as a rejection.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fileio
from .census import run_census, summary_to_json
from .checker import check_sequence, check_triangle, check_witness
from .render import FORMATS, Palette, render_triangle
from .search import Indeterminate, SearchBudget, Unreachable, build_chain, classify
from .systems import (
    MAX_CANON_COLORS,
    Bounded,
    HasColoring,
    InputError,
    TriangleColoring,
    Unknown,
    canonical_form,
    is_isomorphic,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_BAD_INPUT = 2


def _add_budget_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--depth-cap", type=int, default=64, metavar="N",
                     help="longest sequence length searched (default 64)")
    sub.add_argument("--period-cap", type=int, default=4, metavar="N",
                     help="largest torus period tried per axis (default 4)")
    sub.add_argument("--node-cap", type=int, default=None, metavar="N",
                     help="abort searches after N tile placements (default unbounded)")


def _budget(args: argparse.Namespace) -> SearchBudget:
    return SearchBudget(depth_cap=args.depth_cap, period_cap=args.period_cap,
                        node_cap=args.node_cap)


def _verdict_text(verdict) -> str:
    if isinstance(verdict, Bounded):
        return f"bounded, max length {verdict.max_len}"
    if isinstance(verdict, HasColoring):
        w = verdict.witness
        return f"has coloring, period {w.p}x{w.q}"
    assert isinstance(verdict, Unknown)
    return (f"unknown, depth reached {verdict.depth_reached}, "
            f"period cap {verdict.period_cap_reached}")


_CHECKS = {"sequence": check_sequence, "triangle": check_triangle, "witness": check_witness}


def _cmd_check(args: argparse.Namespace) -> int:
    system = fileio.load_system(args.system)
    kind, coloring = fileio.load_coloring(args.coloring)
    violation = _CHECKS[kind](system, coloring)
    if violation is None:
        print("accepted")
        return EXIT_YES
    print(f"rejected: {violation.message()}")
    return EXIT_NO


def _cmd_solve(args: argparse.Namespace) -> int:
    system = fileio.load_system(args.system)
    budget = _budget(args)
    print(_verdict_text(classify(system, budget)))
    if args.chain is None:
        return EXIT_YES
    result = build_chain(system, args.chain, budget)
    if isinstance(result, Unreachable):
        print(f"chain: no acceptable sequence of length {args.chain}")
        return EXIT_NO
    if isinstance(result, Indeterminate):
        print(f"chain: node budget exhausted after {result.nodes} placements")
        return EXIT_NO
    print("chain: " + json.dumps(list(result)))
    triangle = TriangleColoring(result)
    sys.stdout.write(render_triangle(triangle, "text").decode("ascii"))
    return EXIT_YES


def _cmd_classify(args: argparse.Namespace) -> int:
    system = fileio.load_system(args.system)
    verdict = classify(system, _budget(args))
    print(json.dumps(fileio.verdict_to_json(verdict)))
    return EXIT_YES


def _cmd_census(args: argparse.Namespace) -> int:
    summary = run_census(
        args.colors,
        _budget(args),
        jobs=args.jobs,
        out_path=args.out,
        resume=args.resume,
        stop_after=args.stop_after,
    )
    if summary is None:
        print("paused")
        return EXIT_YES
    print(json.dumps(summary_to_json(summary)))
    return EXIT_YES


def _load_palette(path: str) -> Palette:
    obj = fileio.load_json(path)
    if not isinstance(obj, list):
        raise fileio.FileFormatError(f"{path}: palette must be an array")
    entries = []
    for i, entry in enumerate(obj):
        fileio._require_keys(entry, ("name", "rgb"), f"{path}: palette entry {i}")
        if not isinstance(entry["rgb"], list):
            raise fileio.FileFormatError(f"{path}: palette entry {i}.rgb must be an array")
        entries.append((entry["name"], tuple(entry["rgb"])))
    try:
        return Palette(entries=tuple(entries))
    except InputError as exc:
        raise fileio.FileFormatError(f"{path}: {exc}") from None


def _cmd_render(args: argparse.Namespace) -> int:
    kind, coloring = fileio.load_coloring(args.coloring)
    if kind == "sequence":
        triangle = TriangleColoring(coloring)
    elif kind == "triangle":
        triangle = coloring
    else:
        triangle = coloring.expand(args.depth)
    palette = _load_palette(args.palette) if args.palette else None
    data = render_triangle(triangle, fmt=args.format, palette=palette, scale=args.scale)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return EXIT_YES


def _cmd_isomorphic(args: argparse.Namespace) -> int:
    first = fileio.load_system(args.system)
    second = fileio.load_system(args.other)
    if is_isomorphic(first, second):
        print("isomorphic")
        return EXIT_YES
    print("not isomorphic")
    return EXIT_NO


def _cmd_canon(args: argparse.Namespace) -> int:
    system = fileio.load_system(args.system)
    text = fileio.dump_pretty(fileio.system_to_json(canonical_form(system)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_YES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadcolor",
        description="Workbench for origin-anchored colorings of the quadrant.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("check", help="test a finite coloring against a system")
    p.add_argument("system", help="system JSON file")
    p.add_argument("coloring", help="sequence, triangle, or witness JSON file")
    p.set_defaults(func=_cmd_check)

    p = subs.add_parser("solve", help="classify a system, optionally growing a chain")
    p.add_argument("system", help="system JSON file")
    _add_budget_flags(p)
    p.add_argument("--chain", type=int, default=None, metavar="LEN",
                   help="also grow the least chain out to LEN elements")
    p.set_defaults(func=_cmd_solve)

    p = subs.add_parser("classify", help="like solve but prints the verdict as JSON")
    p.add_argument("system", help="system JSON file")
    _add_budget_flags(p)
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("census", help="classify every system at a color count")
    p.add_argument("colors", type=int, help="color count n")
    _add_budget_flags(p)
    p.add_argument("--out", default=None, metavar="FILE", help="write records as JSON lines")
    p.add_argument("--resume", action="store_true",
                   help="continue an interrupted run from its last complete record")
    p.add_argument("--jobs", type=int, default=1, metavar="N", help="worker processes")
    p.add_argument("--stop-after", type=int, default=None, metavar="N",
                   help="pause after producing N records (for testing interruption)")
    p.set_defaults(func=_cmd_census)

    p = subs.add_parser("render", help="draw a coloring")
    p.add_argument("coloring", help="sequence, triangle, or witness JSON file")
    p.add_argument("--format", choices=FORMATS, default="text")
    p.add_argument("--out", default=None, metavar="FILE", help="write bytes here instead of stdout")
    p.add_argument("--palette", default=None, metavar="FILE", help="palette JSON file")
    p.add_argument("--scale", type=int, default=1, metavar="K", help="pixels per tile edge")
    p.add_argument("--depth", type=int, default=9, metavar="D",
                   help="expand a witness onto the tiles with x + y <= D (default 9)")
    p.set_defaults(func=_cmd_render)

    p = subs.add_parser("isomorphic", help="test whether two systems differ only by renaming "
                        f"(equal color counts up to {MAX_CANON_COLORS})")
    p.add_argument("system", help="system JSON file")
    p.add_argument("other", help="system JSON file")
    p.set_defaults(func=_cmd_isomorphic)

    p = subs.add_parser("canon", help="print the canonical form of a system")
    p.add_argument("system", help="system JSON file")
    p.add_argument("--out", default=None, metavar="FILE")
    p.set_defaults(func=_cmd_canon)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # InputError is a ValueError; so are codec range errors on raw flags
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
