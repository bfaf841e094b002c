"""Exhaustive classification of every coloring system at a fixed color count.

Systems are enumerated in a fixed order: origin ascending, then the H mask
as an integer, then the V mask, so system number ``i`` is always the same
system and census output files are comparable byte for byte.  Classification
of a system goes through its canonical form, so each isomorphism class is
classified once per census process however the index range is cut into
chunks, and every member of a class receives the same verdict.  The
origin and H are constant over each run of 2^(n^2) consecutive indices, so
the canonicalizing bijections are worked out once per run and each system
then costs one renaming of its V mask.

Output is JSON lines, one record per system, written and flushed one
chunk at a time.  A cursor sidecar, written once when the file is created,
records the budget, so an interrupted run can resume where the last
complete record ended without mixing records of different budgets.
"""

from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import asdict, dataclass
from typing import Iterable, Iterator, Optional

from .fileio import (
    FileFormatError,
    _as_int,
    _require_keys,
    dump_pretty,
    parse_witness,
)
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
    _class_id,
    _least_h,
    _permute_mask,
    canonicalize,  # not called here; perfbench/tracing.py wraps census.canonicalize
)


def total_systems(n: int) -> int:
    """n * 2^(n^2) * 2^(n^2): every (origin, H, V) combination."""
    _check_color_count(n)
    return n << (2 * n * n)


def _check_color_count(n: int) -> None:
    # every record carries a canonical id, so the n! canonicalization cap binds
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= MAX_CANON_COLORS:
        raise InputError(f"census color count must be in [1, {MAX_CANON_COLORS}], got {n!r}")


def system_at(n: int, index: int) -> ColoringSystem:
    """The index-th system: index = (origin * 2^(n^2) + h_mask) * 2^(n^2) + v_mask."""
    total = total_systems(n)
    if not isinstance(index, int) or not 0 <= index < total:
        raise InputError(f"system index {index!r} out of range [0, {total})")
    relation_bits = n * n
    rest, v_mask = divmod(index, 1 << relation_bits)
    origin, h_mask = divmod(rest, 1 << relation_bits)
    return ColoringSystem(n=n, origin=origin, h_mask=h_mask, v_mask=v_mask)


def system_index(sys: ColoringSystem) -> int:
    relation_bits = sys.n * sys.n
    return ((sys.origin << relation_bits) | sys.h_mask) << relation_bits | sys.v_mask


def enumerate_systems(n: int) -> Iterator[ColoringSystem]:
    for index in range(total_systems(n)):
        yield system_at(n, index)


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


@dataclass(frozen=True)
class MuEstimate:
    """exact is present only when the census closed every system."""

    exact: Optional[int]
    lower_bound: int


# -- classification -----------------------------------------------------------


def _invert(perm: tuple) -> list:
    out = [0] * len(perm)
    for c, pc in enumerate(perm):
        out[pc] = c
    return out


def _relabel_witness(w: PeriodicWitness, relabel: list) -> PeriodicWitness:
    return PeriodicWitness(
        p=w.p, q=w.q, rows=tuple(tuple(relabel[c] for c in row) for row in w.rows)
    )


def census_records(
    n: int,
    budget: SearchBudget,
    start: int = 0,
    stop: Optional[int] = None,
) -> Iterator[CensusRecord]:
    """Classify systems start..stop-1 in enumeration order.

    The verdict is computed for the canonical form and shared across the
    isomorphism class; witnesses are relabeled back through the
    canonicalizing bijection so they certify the actual system in the
    record.  Canonicalization runs once per run of equal (origin, H).
    """
    for index, cid, perm, verdict in _classified(n, budget, start, stop, {}):
        if isinstance(verdict, HasColoring):
            verdict = HasColoring(_relabel_witness(verdict.witness, _invert(perm)))
        yield CensusRecord(
            system_index=index, system=system_at(n, index), verdict=verdict, canonical_id=cid
        )


def _classified(
    n: int, budget: SearchBudget, start: int, stop: Optional[int], classes: dict
) -> Iterator[tuple[int, str, tuple, Verdict]]:
    """(index, canonical id, bijection, class verdict) for systems start..stop-1.

    The id and bijection are those of canonicalize(system_at(n, index)); the
    verdict is the canonical form's, looked up in or added to ``classes``.
    Origin and H are fixed over each run of 2^(n^2) indices, so
    systems._least_h finds the least perm(H) and the bijections reaching it
    once per run; a system's key is then the least (perm(V), perm) over
    those ties, as in canonicalize.
    """
    total = total_systems(n)
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise InputError(f"record range [{start}, {stop}) outside [0, {total}]")
    bits = n * n
    run = 1 << bits
    for base in range(start - start % run, stop, run):
        origin, h_mask = divmod(base >> bits, run)
        canon_h, ties = _least_h(n, origin, h_mask)
        for v_mask in range(max(start - base, 0), min(stop - base, run)):
            canon_v, perm = min((_permute_mask(v_mask, p, n), p) for p in ties)
            key = canon_h << bits | canon_v
            verdict = classes.get(key)
            if verdict is None:
                verdict = classes[key] = classify(ColoringSystem(n, 0, canon_h, canon_v), budget)
            yield base + v_mask, _class_id(n, 0, canon_h, canon_v), perm, verdict


# -- record lines ---------------------------------------------------------------


def record_line(rec: CensusRecord) -> str:
    return _line(rec.system_index, rec.canonical_id, rec.verdict)


def _line(index: int, cid: str, verdict: Verdict, perm: Optional[tuple] = None) -> str:
    """The record line of system ``index``.  With ``perm``, the verdict is its
    class's and perm took the system to the class's canonical form, so a
    witness's cells are written mapped back through perm's inverse."""
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
        rows = w.rows
        if perm is not None:
            back = _invert(perm)
            rows = [[back[c] for c in row] for row in rows]
        cells = "],[".join(",".join(map(str, row)) for row in rows)
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


def parse_record_line(n: int, line: str) -> CensusRecord:
    what = "census record"
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{what}: {exc.msg} at column {exc.colno}") from exc
    _require_keys(obj, ("system_index", "canonical_id", "verdict", "detail"), what)
    index = _as_int(obj["system_index"], f"{what}.system_index")
    cid = obj["canonical_id"]
    if not isinstance(cid, str):
        raise FileFormatError(f"{what}.canonical_id must be a string")
    kind = obj["verdict"]
    detail = obj["detail"]
    if not isinstance(detail, dict):
        raise FileFormatError(f"{what}.detail must be an object")
    if kind == "bounded":
        _require_keys(detail, ("max_len",), f"{what}.detail")
        verdict: Verdict = Bounded(max_len=_as_int(detail["max_len"], f"{what}.detail.max_len"))
    elif kind == "has_coloring":
        verdict = HasColoring(witness=parse_witness(detail, f"{what}.detail"))
    elif kind == "unknown":
        _require_keys(detail, ("depth_reached", "period_cap_reached"), f"{what}.detail")
        verdict = Unknown(
            depth_reached=_as_int(detail["depth_reached"], f"{what}.detail.depth_reached"),
            period_cap_reached=_as_int(
                detail["period_cap_reached"], f"{what}.detail.period_cap_reached"
            ),
        )
    else:
        raise FileFormatError(f"{what}: unknown verdict kind {kind!r}")
    return CensusRecord(
        system_index=index, system=system_at(n, index), verdict=verdict, canonical_id=cid
    )


# -- summaries --------------------------------------------------------------------


class _Totals:
    def __init__(self, n: int):
        self.n = n
        self.count = 0
        self.bounded = 0
        self.has_coloring = 0
        self.unknown = 0
        self.best_len = 0
        self.champion: Optional[int] = None

    def add(self, index: int, verdict: Verdict) -> None:
        self.count += 1
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
        self.count += later.count
        self.bounded += later.bounded
        self.has_coloring += later.has_coloring
        self.unknown += later.unknown
        if later.best_len > self.best_len:
            self.best_len = later.best_len
            self.champion = later.champion

    def summary(self) -> CensusSummary:
        lower = 1 + self.best_len if self.bounded else 1
        total = total_systems(self.n)
        exact = lower if (self.unknown == 0 and self.count == total) else None
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


def summarize_records(n: int, records: Iterable[CensusRecord]) -> CensusSummary:
    totals = _Totals(n)
    for rec in records:
        totals.add(rec.system_index, rec.verdict)
    return totals.summary()


# -- census chunks ----------------------------------------------------------------


# Class verdicts of the census run in this process, for one (n, budget) at a
# time.  They outlive a chunk, so a process classifies each class once across
# all of its chunks; run_census empties the table when it finishes.
_classes: dict = {}

# Most systems in one chunk.  A chunk's lines are held in memory until the
# whole chunk is written, so the cap bounds both the memory a chunk holds
# and how far the output file lags behind the work done.
_CHUNK_CAP = 4096


def _chunk(task: tuple) -> tuple[list, _Totals]:
    """Record lines for systems start..stop-1, and the totals over them.

    Canonicalization runs once per run of equal (origin, H), and each line
    is formatted from the index, the class id and the class verdict, with
    no per-system record objects."""
    n, budget, start, stop = task
    if (n, budget) not in _classes:
        _classes.clear()
        _classes[n, budget] = {}
    totals = _Totals(n)
    lines = []
    for index, cid, perm, verdict in _classified(n, budget, start, stop, _classes[n, budget]):
        totals.add(index, verdict)
        lines.append(_line(index, cid, verdict, perm))
    return lines, totals


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
    classified in one piece (by a pool of ``jobs`` workers when jobs > 1),
    then written and flushed in index order.  The cursor sidecar holding
    the budget is written once, when the output file is created, and
    removed when the run completes; resume re-scans the record file for
    its position and truncates any torn tail.
    """
    _check_color_count(n)
    if not isinstance(jobs, int) or jobs < 1:
        raise InputError(f"jobs must be >= 1, got {jobs!r}")
    if stop_after is not None and stop_after < 0:
        raise InputError(f"stop_after must be >= 0, got {stop_after!r}")
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
                out = open(out_path, "a", encoding="utf-8")
            else:
                # truncate first: a new cursor beside old records would mix budgets
                out = open(out_path, "w", encoding="utf-8")
                _write_atomic(_cursor_path(out_path), dump_pretty(_cursor_payload(n, budget)))

        paused = stop_after is not None and start + stop_after < total
        stop = start + stop_after if paused else total
        chunk = max(1, min(_CHUNK_CAP, -(-(total - start) // (jobs * 8))))
        tasks = [(n, budget, a, min(a + chunk, stop)) for a in range(start, stop, chunk)]
        if jobs > 1 and tasks:
            pool = multiprocessing.Pool(processes=jobs)
            chunks = pool.imap(_chunk, tasks)
        else:
            chunks = map(_chunk, tasks)
        for lines, chunk_totals in chunks:
            if out is not None:
                out.writelines(line + "\n" for line in lines)
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


def mu(n: int, budget: SearchBudget) -> MuEstimate:
    """Desk-scale bound on the longest-bounded-system length at color count n.

    exact = 1 + max bounded length when every system was certified one way
    or the other; otherwise only the lower bound (from the systems that
    were certified bounded) is reported.
    """
    summary = run_census(n, budget)
    assert summary is not None
    return MuEstimate(exact=summary.mu_exact, lower_bound=summary.mu_lower_bound)
