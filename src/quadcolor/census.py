"""Exhaustive classification of every coloring system at a fixed color count.

Systems are enumerated in a fixed order: origin ascending, then the H mask
as an integer, then the V mask, so system number ``i`` is always the same
system and census output files are comparable byte for byte.  Classification
of a system goes through its canonical form, so each isomorphism class is
classified once per census process however the index range is cut into
chunks, and every member of a class receives the same verdict.  The
origin and H are constant over each run of 2^(n^2) consecutive indices, so
the canonicalizing bijections and a small column table for each of them are
worked out once per run, the V masks of the run are renamed by them a
bounded slice at a time, one pass through each table, and each system then
costs a few table reads and one class-table lookup.

Output is JSON lines, one record per system.  Each chunk of systems comes
back, from a pool worker or in process, as one bytes buffer of its lines,
which is written to the binary record file in one write and flushed.  A
cursor sidecar, written once when the file is created, records the
budget, so an interrupted run can resume where the last complete record
ended without mixing records of different budgets.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import repeat
from typing import Iterator, Optional

from .fileio import FileFormatError, dump_pretty
from .search import SearchBudget, classify
from .systems import (
    MAX_CANON_COLORS,
    Bounded,
    ColoringSystem,
    HasColoring,
    InputError,
    PeriodicWitness,
    Unknown,
    Verdict,
    _is_int,
    _least_h,
    canonicalize,  # not called here; perfbench/tracing.py wraps census.canonicalize
)


def total_systems(n: int) -> int:
    """n * 2^(n^2) * 2^(n^2): every (origin, H, V) combination."""
    _check_color_count(n)
    return n << (2 * n * n)


def _check_color_count(n: int) -> None:
    # every record carries a canonical id, so the n! canonicalization cap binds
    if not _is_int(n) or not 1 <= n <= MAX_CANON_COLORS:
        raise InputError(f"census color count must be in [1, {MAX_CANON_COLORS}], got {n!r}")


def system_at(n: int, index: int) -> ColoringSystem:
    """The index-th system: index = (origin * 2^(n^2) + h_mask) * 2^(n^2) + v_mask."""
    total = total_systems(n)
    if not _is_int(index) or not 0 <= index < total:
        raise InputError(f"system index {index!r} out of range [0, {total})")
    relation_bits = n * n
    rest, v_mask = divmod(index, 1 << relation_bits)
    origin, h_mask = divmod(rest, 1 << relation_bits)
    return ColoringSystem(n=n, origin=origin, h_mask=h_mask, v_mask=v_mask)


def system_index(sys: ColoringSystem) -> int:
    relation_bits = sys.n * sys.n
    return ((sys.origin << relation_bits) | sys.h_mask) << relation_bits | sys.v_mask


@dataclass(frozen=True)
class CensusRecord:
    system_index: int
    system: ColoringSystem
    verdict: Verdict
    canonical_id: str


@dataclass(frozen=True)
class CensusSummary:
    n: int
    total_systems: int
    bounded: int
    has_coloring: int
    unknown: int
    mu_exact: Optional[int]
    mu_lower_bound: int
    champion: Optional[int]


def summary_to_json(s: CensusSummary) -> dict:
    return asdict(s)


# -- classification -----------------------------------------------------------


def census_records(
    n: int,
    budget: SearchBudget,
    start: int = 0,
    stop: Optional[int] = None,
) -> Iterator[CensusRecord]:
    """The records of systems start..stop-1 in enumeration order, read back
    from the lines run_census writes for them.

    The range is checked here, when the call is made, not at the first
    record.  Each call classifies with a class table of its own.
    """
    stop = _record_range(n, start, stop)
    return (
        parse_record_line(n, _line(index, cid, verdict, perm))
        for index, cid, perm, verdict in _classified(n, budget, start, stop, {})
    )


def _record_range(n: int, start: int, stop: Optional[int]) -> int:
    """stop, or the census size when stop is None, once start..stop-1 is
    checked to be a range of system indices at color count n."""
    total = total_systems(n)
    if not (_is_int(start) and (stop is None or _is_int(stop))):
        raise InputError(f"record range start={start!r}, stop={stop!r}: ends must be ints, stop may be None")
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise InputError(f"record range [{start}, {stop}) outside [0, {total}]")
    return stop


def _columns(perm: tuple) -> tuple[list, tuple]:
    """perm's renaming of one row of a relation mask: entry m of the table is
    the image of the columns b set in m, 2^n entries.  Row a of a mask holds
    its pairs (a, b), and its image goes to row perm[a], the given shift."""
    n = len(perm)
    cols = [0]
    for pb in perm:
        bit = 1 << pb
        cols += [c | bit for c in cols]
    return cols, tuple(pa * n for pa in perm)


def _renamed(cols: list, shifts: tuple, lo: int, hi: int) -> list:
    """[perm(V) for V in lo..hi-1], from perm's _columns.  V's low n bits are
    its row 0 and V >> n holds the rows above, so the images are those of
    the upper rows' range, each joined with the row-0 images, trimmed to the
    range: one pass per row, over no more of row 0 than a short range needs."""
    shift = shifts[0]
    if len(shifts) == 1:
        return [c << shift for c in cols[lo:hi]]
    n = len(cols).bit_length() - 1
    top, last = lo >> n, (hi - 1) >> n
    highs = _renamed(cols, shifts[1:], top, last + 1)
    mask = (1 << n) - 1
    if top == last:
        return [highs[0] | c << shift for c in cols[lo & mask : (hi - 1 & mask) + 1]]
    low = [c << shift for c in cols]
    skip = lo & mask
    return [h | x for h in highs for x in low][skip : skip + hi - lo]


# Most renamed V masks held at once, summed over a run's tied bijections.
# At n = 8 a run has 2^64 masks and as many as 7! = 5,040 ties.
_RENAMED_CAP = 1 << 16


def _classified(
    n: int, budget: SearchBudget, start: int, stop: int, classes: dict
) -> Iterator[tuple[int, str, tuple, Verdict]]:
    """(index, canonical id, bijection, class verdict) for systems start..stop-1,
    a range that _record_range accepts.

    The id and bijection are those of canonicalize(system_at(n, index)); the
    verdict is the canonical form's, looked up in or added to ``classes``.
    Origin and H are fixed over each run of 2^(n^2) indices, so
    systems._least_h finds the least perm(H) and the bijections tied on it
    once per run.  The run is walked in slices of _RENAMED_CAP // len(ties)
    V masks, so records stream however long the run; each tied perm renames
    a slice in one pass (_renamed) through its _columns table, built once
    per run, and a system's key is the least (perm(V), perm) over the ties,
    as in canonicalize: equal images keep the first bijection.  The id is
    the canonical form written n.0.H.V with hex masks: the run's prefix
    and the canonical V.
    """
    bits = n * n
    run = 1 << bits
    for base in range(start - start % run, stop, run):
        origin, h_mask = divmod(base >> bits, run)
        canon_h, ties = _least_h(n, origin, h_mask)
        high = canon_h << bits
        prefix = f"{n}.0.{canon_h:x}."
        tables = [(_columns(p), p) for p in ties]
        step = max(1, _RENAMED_CAP // len(ties))
        end = min(stop - base, run)
        for lo in range(max(start - base, 0), end, step):
            hi = min(lo + step, end)
            keyed = [zip(_renamed(*cols, lo, hi), repeat(p)) for cols, p in tables]
            keys = map(min, *keyed) if len(keyed) > 1 else keyed[0]
            for index, (canon_v, perm) in enumerate(keys, base + lo):
                verdict = classes.get(high | canon_v)
                if verdict is None:
                    verdict = classes[high | canon_v] = classify(ColoringSystem(n, 0, canon_h, canon_v), budget)
                yield index, f"{prefix}{canon_v:x}", perm, verdict


# -- record lines ---------------------------------------------------------------


def record_line(rec: CensusRecord) -> str:
    return _line(rec.system_index, rec.canonical_id, rec.verdict, tuple(range(rec.system.n)))


def _line(index: int, cid: str, verdict: Verdict, perm: tuple) -> str:
    """The record line of system ``index``, whose verdict is its class's:
    perm took the system to the class's canonical form, so a witness's
    cells are written as the digits of their preimages under perm."""
    # Formatted by hand, several times faster than json.dumps.  It must stay
    # byte-equal to the compact form json.dumps(obj, separators=(",", ":")):
    # test_census.py pins census file hashes and checks every n=2 record
    # against json.dumps.  Canonical ids (digits, dots, hex) need no escaping.
    if isinstance(verdict, Bounded):
        kind = "bounded"
        detail = f'{{"max_len":{verdict.max_len}}}'
    elif isinstance(verdict, HasColoring):
        kind = "has_coloring"
        w = verdict.witness
        digits = _back(perm)
        cells = "],[".join([",".join(map(digits.__getitem__, row)) for row in w.rows])
        detail = f'{{"p":{w.p},"q":{w.q},"cells":[[{cells}]]}}'
    else:
        kind = "unknown"
        detail = (
            f'{{"depth_reached":{verdict.depth_reached},'
            f'"period_cap_reached":{verdict.period_cap_reached}}}'
        )
    return (
        f'{{"system_index":{index},"canonical_id":"{cid}",'
        f'"verdict":"{kind}","detail":{detail}}}'
    )


@lru_cache(maxsize=128)
def _back(perm: tuple) -> tuple:
    """The digits a record line writes for each canonical color: those of
    its preimage under perm."""
    back = [""] * len(perm)
    for c, pc in enumerate(perm):
        back[pc] = str(c)
    return tuple(back)


# The verdict classes that a record's detail object builds by keyword.
_DETAILED = {"bounded": Bounded, "unknown": Unknown}


def parse_record_line(n: int, line: str) -> CensusRecord:
    """The record of a census line at color count n: the exact inverse of
    _line, so the record format lives in one place.

    The line is accepted only when _line, given the record read from it and
    the identity bijection, writes back the same bytes; it may carry one
    trailing newline.  Any other JSON text of the same record (other key
    order or spacing, escapes, duplicate or unknown keys, bools posing as
    ints) raises a FileFormatError, as does a line whose fields build no
    record; a detail field that its verdict refuses is named.
    """
    what = "census record"
    try:
        obj = json.loads(line)
        index, cid, kind, detail = (obj[key] for key in ("system_index", "canonical_id", "verdict", "detail"))
        if kind == "has_coloring":
            cells = tuple(map(tuple, detail["cells"]))
            verdict = HasColoring(PeriodicWitness(detail["p"], detail["q"], cells))
        else:
            verdict = _DETAILED[kind](**detail)
        rec = CensusRecord(index, system_at(n, index), verdict, cid)
        same = _line(index, cid, verdict, tuple(range(n))) == line.removesuffix("\n")
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{what}: {exc.msg} at column {exc.colno}") from exc
    except KeyError as exc:
        raise FileFormatError(f"{what}: no key or verdict kind {exc}") from None
    except (TypeError, IndexError, InputError) as exc:
        raise FileFormatError(f"{what}: {exc}") from None
    if not same:
        raise FileFormatError(f"{what}: not the line run_census writes for it")
    return rec


# -- summaries --------------------------------------------------------------------


class _Totals:
    def __init__(self, n: int):
        self.n = n
        self.bounded = 0
        self.has_coloring = 0
        self.unknown = 0
        self.best_len = 0
        self.champion: Optional[int] = None

    def add(self, index: int, verdict: Verdict) -> None:
        if isinstance(verdict, Bounded):
            self.bounded += 1
            if verdict.max_len > self.best_len:
                self.best_len = verdict.max_len
                self.champion = index
        elif isinstance(verdict, HasColoring):
            self.has_coloring += 1
        else:
            self.unknown += 1

    def merge(self, later: "_Totals") -> None:
        """Fold in the totals of the records that follow these ones.  On a
        tied max_len the earlier champion stays, as in add."""
        self.bounded += later.bounded
        self.has_coloring += later.has_coloring
        self.unknown += later.unknown
        if later.best_len > self.best_len:
            self.best_len = later.best_len
            self.champion = later.champion

    def summary(self) -> CensusSummary:
        lower = 1 + self.best_len if self.bounded else 1
        total = total_systems(self.n)
        count = self.bounded + self.has_coloring + self.unknown
        exact = lower if (self.unknown == 0 and count == total) else None
        return CensusSummary(
            n=self.n,
            total_systems=total,
            bounded=self.bounded,
            has_coloring=self.has_coloring,
            unknown=self.unknown,
            mu_exact=exact,
            mu_lower_bound=lower,
            champion=self.champion,
        )


# -- census chunks ----------------------------------------------------------------


# Class verdicts of the census run in this process, for one (n, budget) at a
# time.  They outlive a chunk, so a process classifies each class once across
# all of its chunks; run_census empties the table when it finishes.
_classes: dict = {}

# Most systems in one chunk.  A chunk's lines are held in memory until the
# whole chunk is written, so the cap bounds both the memory a chunk holds
# and how far the output file lags behind the work done.
_CHUNK_CAP = 4096


def _chunk(task: tuple) -> tuple[bytes, _Totals]:
    """The record lines of systems start..stop-1 as one bytes buffer, each
    line ending in a newline, and the totals over them.

    Canonicalization runs once per run of equal (origin, H), and each line
    is formatted from the index, the class id and the class verdict, with
    no per-system record objects.  One buffer is one object for a pool to
    send back and one write for run_census."""
    n, budget, start, stop = task
    if (n, budget) not in _classes:
        _classes.clear()
        _classes[n, budget] = {}
    totals = _Totals(n)
    lines = []
    for index, cid, perm, verdict in _classified(n, budget, start, stop, _classes[n, budget]):
        totals.add(index, verdict)
        lines.append(_line(index, cid, verdict, perm))
    lines.append("")
    return "\n".join(lines).encode(), totals


# -- resumable streaming runs -----------------------------------------------------


def _cursor_path(out_path: str) -> str:
    return out_path + ".cursor"


def _cursor_payload(n: int, budget: SearchBudget) -> dict:
    return {"n": n, **asdict(budget)}


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _check_cursor(out_path: str, n: int, budget: SearchBudget) -> None:
    """Refuse to resume unless the cursor shows the same n and budget; the
    record file itself carries no budget."""
    path = _cursor_path(out_path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            prior = json.load(fh)
    except FileNotFoundError:
        raise InputError(
            f"{out_path} has no cursor {path}, so its budget is unknown; "
            "only an unfinished census run can be resumed"
        ) from None
    except (json.JSONDecodeError, UnicodeDecodeError):
        prior = None
    if not isinstance(prior, dict):
        raise InputError(f"cursor {path} is unreadable, so the budget of {out_path} is unknown")
    for key, value in _cursor_payload(n, budget).items():
        if prior.get(key) != value:
            raise InputError(
                f"{out_path} was produced with {key}={prior.get(key)!r}; "
                f"resuming with {key}={value!r} would mix incomparable records"
            )


def _scan_existing(out_path: str, n: int, totals: _Totals) -> int:
    """Count the leading run of complete, in-order records; truncate the rest.
    Returns the next index to produce."""
    good_bytes = 0
    count = 0
    with open(out_path, "rb") as fh:
        for raw in fh:
            if not raw.endswith(b"\n"):
                break  # partial tail from an interrupted write
            try:
                rec = parse_record_line(n, raw.decode("utf-8"))
            except (InputError, UnicodeDecodeError):
                break
            if rec.system_index != count:
                break
            totals.add(rec.system_index, rec.verdict)
            count += 1
            good_bytes += len(raw)
    with open(out_path, "r+b") as fh:
        fh.truncate(good_bytes)
    return count


def run_census(
    n: int,
    budget: SearchBudget,
    *,
    jobs: int = 1,
    out_path: Optional[str] = None,
    resume: bool = False,
    stop_after: Optional[int] = None,
) -> Optional[CensusSummary]:
    """Classify all systems at color count n, optionally streaming to a file.

    Returns the summary, or None when stop_after paused the run early (a
    paused run has no summary; resume it to completion first).  With
    resume=True an existing output file is extended from its last complete
    record instead of being restarted.

    The index range is cut into chunks of at most 4,096 systems, each
    classified in one piece (by a pool of ``jobs`` workers when jobs > 1)
    into one bytes buffer of lines, which is written to the record file,
    opened in binary mode, and flushed in index order.  The cursor sidecar
    holding the budget is written once, when the output file is created,
    and removed when the run completes; resume re-scans the record file
    for its position and truncates any torn tail.
    """
    _check_color_count(n)
    if not _is_int(jobs) or jobs < 1:
        raise InputError(f"jobs must be >= 1, got {jobs!r}")
    if stop_after is not None and (not _is_int(stop_after) or stop_after < 0):
        raise InputError(f"stop_after must be an int >= 0 or None, got {stop_after!r}")
    if resume and out_path is None:
        raise InputError("resume needs an output path to resume from")

    total = total_systems(n)
    totals = _Totals(n)
    start = 0
    out = None
    pool = None
    try:
        if out_path is not None:
            if resume and os.path.exists(out_path):
                _check_cursor(out_path, n, budget)
                start = _scan_existing(out_path, n, totals)
                out = open(out_path, "ab")
            else:
                # truncate first: a new cursor beside old records would mix budgets
                out = open(out_path, "wb")
                _write_atomic(_cursor_path(out_path), dump_pretty(_cursor_payload(n, budget)))

        paused = stop_after is not None and start + stop_after < total
        stop = start + stop_after if paused else total
        chunk = max(1, min(_CHUNK_CAP, -(-(total - start) // (jobs * 8))))
        tasks = ((n, budget, a, min(a + chunk, stop)) for a in range(start, stop, chunk))
        if jobs > 1 and start < stop:
            pool = multiprocessing.Pool(processes=jobs)
            chunks = pool.imap(_chunk, tasks)
        else:
            chunks = map(_chunk, tasks)
        for data, chunk_totals in chunks:
            if out is not None:
                out.write(data)
                out.flush()
            totals.merge(chunk_totals)
    finally:
        _classes.clear()
        if pool is not None:
            pool.terminate()
        if out is not None:
            out.close()
    if paused:
        return None
    summary = totals.summary()
    if out_path is not None:
        _write_atomic(out_path + ".summary.json", dump_pretty(summary_to_json(summary)))
        os.remove(_cursor_path(out_path))
    return summary

