"""The JSON files the command line reads and writes.

Every format has a fixed key layout, so equal values serialize to equal
bytes.  Read:

* system     {"colors": n, "origin": a, "horizontal": [[c, d], ...],
              "vertical": [[c, d], ...]}  by every command that takes one
* coloring   by check and render, told apart by shape:
  sequence   [c0, c1, ...]
  triangle   {"depth": k, "rows": [[...], ...]}  rows bottom-up
  witness    {"p": p, "q": q, "cells": [[...], ...]}  cells[y][x]

Written:

* system     by canon, with both pair lists sorted
* verdict    by classify: {"kind": ..., ...kind-specific fields}

Census records, cursors and summaries belong to census.py, palettes to
cli.py, and images to render.py.

Parsers are strict: unknown keys, non-integer entries, duplicate pairs
and booleans posing as ints are all rejected with an InputError naming
the offending field.
"""

from __future__ import annotations

import json

from .systems import (
    Bounded,
    ColoringSystem,
    HasColoring,
    InputError,
    PeriodicWitness,
    TriangleColoring,
    Unknown,
    Verdict,
    _is_int,
)


class FileFormatError(InputError):
    """A file exists but does not parse as the expected format."""


def dump_pretty(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _as_int(value, what: str) -> int:
    if not _is_int(value):
        raise FileFormatError(f"{what} must be an integer, got {value!r}")
    return value


def _as_int_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise FileFormatError(f"{what} must be an array of integers, got {value!r}")
    return [_as_int(v, f"{what}[{i}]") for i, v in enumerate(value)]


def _require_keys(obj, keys: tuple, what: str) -> None:
    if not isinstance(obj, dict):
        raise FileFormatError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [k for k in keys if k not in obj]
    extra = [k for k in obj if k not in keys]
    if missing or extra:
        parts = []
        if missing:
            parts.append(f"missing keys {missing}")
        if extra:
            parts.append(f"unknown keys {extra}")
        raise FileFormatError(f"{what}: " + ", ".join(parts))


# -- systems ----------------------------------------------------------------


def system_to_json(sys: ColoringSystem) -> dict:
    return {
        "colors": sys.n,
        "origin": sys.origin,
        "horizontal": [list(p) for p in sys.h_pairs()],
        "vertical": [list(p) for p in sys.v_pairs()],
    }


def parse_system(obj, what: str = "system") -> ColoringSystem:
    _require_keys(obj, ("colors", "origin", "horizontal", "vertical"), what)
    n = _as_int(obj["colors"], f"{what}.colors")
    origin = _as_int(obj["origin"], f"{what}.origin")
    pair_lists = {}
    for key in ("horizontal", "vertical"):
        raw = obj[key]
        if not isinstance(raw, list):
            raise FileFormatError(f"{what}.{key} must be an array of pairs")
        pairs = []
        for i, entry in enumerate(raw):
            entry = _as_int_list(entry, f"{what}.{key}[{i}]")
            if len(entry) != 2:
                raise FileFormatError(f"{what}.{key}[{i}] must be a pair, got {entry!r}")
            pairs.append(tuple(entry))
        if len(set(pairs)) != len(pairs):
            dupes = sorted({p for p in pairs if pairs.count(p) > 1})
            raise FileFormatError(f"{what}.{key} lists pairs more than once: {dupes}")
        pair_lists[key] = pairs
    return ColoringSystem.from_pairs(n, origin, pair_lists["horizontal"], pair_lists["vertical"])


def load_system(path: str) -> ColoringSystem:
    return parse_system(load_json(path), what=path)


# -- sequences, triangles, witnesses -----------------------------------------


def parse_sequence(obj, what: str = "sequence") -> tuple:
    return tuple(_as_int_list(obj, what))


def parse_triangle(obj, what: str = "triangle") -> TriangleColoring:
    _require_keys(obj, ("depth", "rows"), what)
    depth = _as_int(obj["depth"], f"{what}.depth")
    raw = obj["rows"]
    if not isinstance(raw, list):
        raise FileFormatError(f"{what}.rows must be an array of rows")
    rows = [_as_int_list(row, f"{what}.rows[{y}]") for y, row in enumerate(raw)]
    return TriangleColoring.from_rows(depth, rows)


def witness_to_json(w: PeriodicWitness) -> dict:
    return {"p": w.p, "q": w.q, "cells": [list(row) for row in w.rows]}


def parse_witness(obj, what: str = "witness") -> PeriodicWitness:
    _require_keys(obj, ("p", "q", "cells"), what)
    p = _as_int(obj["p"], f"{what}.p")
    q = _as_int(obj["q"], f"{what}.q")
    raw = obj["cells"]
    if not isinstance(raw, list):
        raise FileFormatError(f"{what}.cells must be an array of rows")
    rows = tuple(tuple(_as_int_list(row, f"{what}.cells[{y}]")) for y, row in enumerate(raw))
    try:
        return PeriodicWitness(p=p, q=q, rows=rows)
    except InputError as exc:
        raise FileFormatError(f"{what}: {exc}") from None


# -- verdicts -----------------------------------------------------------------


def verdict_to_json(v: Verdict) -> dict:
    if isinstance(v, Bounded):
        return {"kind": "bounded", "max_len": v.max_len}
    if isinstance(v, HasColoring):
        return {"kind": "has_coloring", "witness": witness_to_json(v.witness)}
    if isinstance(v, Unknown):
        return {
            "kind": "unknown",
            "depth_reached": v.depth_reached,
            "period_cap_reached": v.period_cap_reached,
        }
    raise TypeError(f"not a verdict: {v!r}")


# -- colorings of unspecified shape -------------------------------------------

def parse_coloring(obj, what: str = "coloring") -> tuple:
    """Dispatch on shape: array = sequence, object = triangle or witness.
    Returns (kind, value) with kind one of sequence/triangle/witness."""
    if isinstance(obj, list):
        return "sequence", parse_sequence(obj, what)
    if isinstance(obj, dict):
        if "depth" in obj or "rows" in obj:
            return "triangle", parse_triangle(obj, what)
        if "p" in obj or "cells" in obj:
            return "witness", parse_witness(obj, what)
    raise FileFormatError(
        f"{what}: expected a color sequence array, a depth/rows triangle, or a p/q/cells witness"
    )


def load_coloring(path: str) -> tuple:
    return parse_coloring(load_json(path), what=path)
