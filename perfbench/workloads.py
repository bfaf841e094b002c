"""The benchmark's workloads: set-up, one timed repetition, output checks.

Every call into the package goes through a module attribute
(``census.run_census``, ``search.build_chain``, ...) so that the tracer can
wrap those names from outside the program.  ``LAYERS`` lists the names it
wraps.  RATIONALE.md says why each workload exists.

A workload is built from (seed, jobs, output directory, speed reference);
its ``run_once`` runs one repetition inside the ``timed`` context and
returns the samples of each unit it timed, the records per unit, the
operations attempted and the operations that failed their output check.
The census times its repetition's wall clock, and the chain and the audit
their workers' CPU time.  Given a speed reference (speedref.py), they scale
those times to its quiet speed.  ``unit_pick`` says whether a unit's time
is the median or the fastest of its samples.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import random
import sys
import traceback
from time import process_time

from quadcolor import census, checker, search, systems
from quadcolor.fixtures import example_system

N = 3
BUDGET = search.SearchBudget()

# run_census cuts the n=3 index range into jobs * 8 chunks of 49,152 systems.
# Stopping one record short of two chunks keeps two workers busy and never
# waits for a third chunk.  This prefix reaches the full census's bound (13)
# and its champion (system 44175).
CENSUS_RECORDS = 98_303
CENSUS_SHA256 = "348c3c9c1d96e6f818a46db63ca00b7cc160580851dbcd9901bcf919ddba5c96"
CENSUS_SUMMARY = {
    "bounded": 52_366,
    "has_coloring": 40_211,
    "unknown": 5_726,
    "mu_lower_bound": 13,
    "champion": 44_175,
}

CHAIN_HORIZON = 200
CHAIN_SHA256 = "acfee3ddc777e2838fe3ceca88ab8c627b92230e71319f7d31769d1f811e6ce6"

AUDIT_DIAGONALS = 40
AUDIT_TILES = systems.full_triangle_depth(AUDIT_DIAGONALS) + 1
# A fixed number of records per verdict, so the mix of cheap and expensive
# records does not vary with the seed.  has_coloring records, which carry
# the checker and codec work, are the majority, so the median record is one
# of them rather than whichever record sits at the cheap/expensive border.
AUDIT_QUOTA = {"bounded": 300, "has_coloring": 600, "unknown": 100}

SETTINGS = {
    "budget": vars(BUDGET),
    "census_records": CENSUS_RECORDS,
    "chain_horizon": CHAIN_HORIZON,
    "audit_records": sum(AUDIT_QUOTA.values()),
    "audit_quota": AUDIT_QUOTA,
    "audit_diagonals": AUDIT_DIAGONALS,
}

LAYERS = (
    (census, "run_census", "census.loop", None),
    (census, "system_at", "census.system_at", None),
    (census, "canonicalize", "systems.canonicalize", None),
    (census, "classify", "search.classify", None),
    (search, "find_periodic_witness", "search.witness", lambda r: r is not None),
    (search, "max_accept_length", "search.exhaust", lambda r: isinstance(r, search.ExactMax)),
    (census, "record_line", "census.record_encode", None),
    (census, "parse_record_line", "census.record_parse", None),
    (search, "build_chain", "search.build_chain", None),
    (checker, "check_sequence", "checker.check_sequence", None),
    (systems.PeriodicWitness, "expand", "systems.expand", None),
    (checker, "check_triangle", "checker.check_triangle", None),
    (search, "enumerate_sequences", "search.enumerate", None),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(layers: dict) -> dict:
    """Per-layer metrics of one traced repetition from the tracer's
    (self seconds, calls, hits) per span name.  A layer the workload
    bypasses reads 0."""
    self_s = {name: v[0] for name, v in layers.items()}
    calls = {name: v[1] for name, v in layers.items()}
    hits = {name: v[2] for name, v in layers.items()}
    out = {}
    for name in ("census.system_at", "systems.canonicalize", "search.classify",
                 "search.witness", "search.exhaust", "search.enumerate"):
        out[name + "_s"] = self_s[name]
        out[name + "_calls"] = calls[name]
    for name in ("census.record_encode", "census.record_parse", "search.build_chain",
                 "checker.check_sequence", "systems.expand", "checker.check_triangle"):
        out[name + "_s"] = self_s[name]
    out["census.loop_self_s"] = self_s["census.loop"]
    canon, classified = calls["systems.canonicalize"], calls["search.classify"]
    out["census.dedupe_hit_ratio"] = _ratio(canon - classified, canon)
    out["search.witness_found_ratio"] = _ratio(hits["search.witness"], calls["search.witness"])
    out["search.exhaust_exact_ratio"] = _ratio(hits["search.exhaust"], calls["search.exhaust"])
    out["checker.tiles_per_s"] = _ratio(
        calls["checker.check_triangle"] * AUDIT_TILES, self_s["checker.check_triangle"]
    )
    return out


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fail(message: str) -> bool:
    print(f"check failed: {message}", file=sys.stderr)
    return False


class CensusN3:
    """The first CENSUS_RECORDS systems of the n=3 census, written to a file."""

    unit_pick = "median"

    def __init__(self, seed: int, jobs: int, out_dir: str, speed=None):
        self.jobs = jobs
        self.speed = speed
        self.out = os.path.join(out_dir, f"census-{os.getpid()}.jsonl")

    def _remove_outputs(self) -> None:
        for path in (self.out, self.out + ".cursor", self.out + ".cursor.tmp"):
            if os.path.exists(path):
                os.remove(path)

    def run_once(self, timed):
        self._remove_outputs()
        before = self.speed.total() if self.speed is not None else None
        try:
            with timed:
                paused = census.run_census(
                    N, BUDGET, jobs=self.jobs, out_path=self.out, stop_after=CENSUS_RECORDS
                )
            with open(self.out, "rb") as fh:
                ok = _census_ok(paused, fh.read())
        except Exception:  # a census that raises is a failed operation
            traceback.print_exc()
            ok = False
        finally:
            self._remove_outputs()
        wall = timed.wall
        if self.speed is not None:
            # the pool's workers move between cores: scale by every probe
            wall = self.speed.scale(wall, before, self.speed.total())
        return [[wall]], CENSUS_RECORDS, 1, int(not ok)


def _census_ok(paused, data: bytes) -> bool:
    ok = paused is None or _fail("run_census did not pause at stop_after")
    digest = _sha256(data)
    if digest != CENSUS_SHA256:
        ok = _fail(f"census output sha256 {digest}, expected {CENSUS_SHA256}")
    summary = _prefix_summary(data)
    if summary != CENSUS_SUMMARY:
        ok = _fail(f"census summary {summary}, expected {CENSUS_SUMMARY}")
    return ok


def _prefix_summary(data: bytes) -> dict:
    """What run_census would summarize for these records, read with json alone."""
    out = {"bounded": 0, "has_coloring": 0, "unknown": 0, "mu_lower_bound": 1, "champion": None}
    best = 0
    for line in data.splitlines():
        obj = json.loads(line)
        out[obj["verdict"]] += 1
        if obj["verdict"] == "bounded" and obj["detail"]["max_len"] > best:
            best = obj["detail"]["max_len"]
            out["champion"] = obj["system_index"]
    if out["bounded"]:
        out["mu_lower_bound"] = 1 + best
    return out


class ChainExample:
    """build_chain to CHAIN_HORIZON on the bundled 13-color example, then
    check_sequence on the result."""

    unit_pick = "median"

    def __init__(self, seed: int, jobs: int, out_dir: str, speed=None):
        self.jobs = jobs
        self.speed = speed
        self.system = example_system()

    def _build(self, worker: int) -> tuple:
        with _Clock(self.speed, worker) as clock:
            try:
                chain = search.build_chain(self.system, CHAIN_HORIZON)
                violation = checker.check_sequence(self.system, chain) if isinstance(chain, tuple) else None
                ok = _chain_ok(chain, violation)
            except Exception:  # a search that raises is a failed operation
                traceback.print_exc()
                ok = False
        return clock.seconds(clock.cpu), ok

    def run_once(self, timed):
        with timed:
            results = _concurrently(self._build, self.jobs)
        return [[t for t, _ in results]], 1, len(results), sum(not ok for _, ok in results)


def _chain_ok(chain, violation) -> bool:
    if not isinstance(chain, tuple) or len(chain) != CHAIN_HORIZON:
        return _fail(f"build_chain returned {chain!r}")
    if violation is not None:
        return _fail(f"check_sequence rejected the chain: {violation.message()}")
    if _sha256(bytes(chain)) != CHAIN_SHA256:
        return _fail(f"chain differs from the least accepted sequence: {chain}")
    return True


class AuditN3:
    """Re-verify the census records of a seed-sampled set of n=3 systems."""

    # A record takes about a millisecond, so a garbage collection or an
    # interrupt inside it can double its sample; its fastest sample is
    # the one such a pause missed (RATIONALE.md).
    unit_pick = "min"

    def __init__(self, seed: int, jobs: int, out_dir: str, speed=None):
        self.jobs = jobs
        self.speed = speed
        self.records = _audit_sample(seed)
        self.reps = 0

    def _audit(self, worker: int) -> tuple:
        # Every worker and repetition starts at its own point of the list
        # (a golden-ratio rotation), so a different record pays for the
        # first call each time.
        n = len(self.records)
        start = int((self.reps * self.jobs + worker) * 0.6180339887 % 1 * n)
        times = [0.0] * n
        failed = 0
        with _Clock(self.speed, worker) as clock:
            for i in list(range(start, n)) + list(range(start)):
                index, line = self.records[i]
                t0 = process_time()
                try:
                    ok = _audit_record(index, line)
                except Exception:  # a record that raises is a failed record
                    if not failed:
                        traceback.print_exc()
                    ok = False
                times[i] = process_time() - t0
                failed += not ok
        # one speed reading per pass: a record is shorter than a probe's pause
        return [clock.seconds(t) for t in times], failed

    def run_once(self, timed):
        with timed:
            results = _concurrently(self._audit, self.jobs)
        self.reps += 1
        units = [list(samples) for samples in zip(*(times for times, _ in results))]
        return units, 1, len(self.records) * len(results), sum(f for _, f in results)


class _Clock:
    """CPU time of a worker's pass, and the speed probe's progress on the
    worker's core over the same pass.  ``seconds`` turns CPU seconds
    measured inside the pass into seconds at the probe's quiet speed, or
    leaves them as they are without a speed reference."""

    def __init__(self, speed, worker: int):
        self.speed = speed
        self.worker = worker

    def __enter__(self):
        if self.speed is not None:
            self.speed.pin(self.worker)
            self._before = self.speed.reading(self.worker)
        self._t0 = process_time()
        return self

    def __exit__(self, *exc):
        self.cpu = process_time() - self._t0
        if self.speed is not None:
            self._after = self.speed.reading(self.worker)
        return False

    def seconds(self, cpu_s: float) -> float:
        if self.speed is None:
            return cpu_s
        return self.speed.scale(cpu_s, self._before, self._after)


def _concurrently(fn, jobs: int) -> list:
    """fn(worker) for each worker in range(jobs): in this process when jobs
    is 1, else each in its own fresh worker process, all at the same time.
    With a speed reference, each worker pins itself to its probe's core.

    Workers are forked: spawning them costs about a second per repetition,
    and this process runs no threads when it forks (the previous pool's
    threads are joined when it closes).  They inherit fn instead of
    unpickling it, since the speed probes' shared memory cannot be
    pickled."""
    global _task
    if jobs == 1:
        return [fn(0)]
    _task = fn
    with multiprocessing.get_context("fork").Pool(jobs) as pool:
        return pool.map(_run_task, range(jobs), chunksize=1)


_task = None


def _run_task(worker: int):
    return _task(worker)


def _audit_sample(seed: int) -> list:
    """(index, record line) pairs in index order, drawn at random until every
    verdict's quota is filled, encoded exactly as the census writes them."""
    rng = random.Random(seed)
    total = census.total_systems(N)
    quota = dict(AUDIT_QUOTA)
    seen = set()
    out = []
    while any(quota.values()):
        index = rng.randrange(total)
        if index in seen:
            continue
        seen.add(index)
        rec = next(census.census_records(N, BUDGET, start=index, stop=index + 1))
        kind = systems.verdict_kind(rec.verdict)
        if quota[kind]:
            quota[kind] -= 1
            out.append((index, census.record_line(rec)))
    out.sort()
    return out


def _audit_record(index: int, line: str) -> bool:
    rec = census.parse_record_line(N, line)
    if rec.system_index != index:
        return _fail(f"record for system {index} parsed as system {rec.system_index}")
    verdict = rec.verdict
    if isinstance(verdict, systems.HasColoring):
        tri = verdict.witness.expand(AUDIT_DIAGONALS)
        violation = checker.check_triangle(rec.system, tri)
        return violation is None or _fail(f"witness of system {index}: {violation.message()}")
    if isinstance(verdict, systems.Bounded):
        longer = search.enumerate_sequences(rec.system, verdict.max_len + 1)
        return not longer.sequences or _fail(
            f"system {index} is bounded at {verdict.max_len} but has a longer sequence"
        )
    return True


WORKLOADS = {
    "census-n3": CensusN3,
    "chain-example": ChainExample,
    "audit-n3": AuditN3,
}
