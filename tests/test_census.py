"""Census over all systems at a fixed color count: enumeration order,
record serialization, dedupe correctness, resumable streaming, and the
frozen small-n summaries."""

import dataclasses
import hashlib
import itertools
import json
import os
import random
import time

import pytest

import quadcolor as qc
from quadcolor import census, systems
from quadcolor.census import census_records
from conftest import (
    brute_canonicalize,
    brute_max_length,
    brute_rename,
    brute_torus_colorings,
    random_system,
)

CAPS = qc.SearchBudget(depth_cap=32, period_cap=4)

# Regression pin for the full two-color census at the caps above.  The
# 22 unknowns are systems that color the whole quadrant with no torus
# coloring through the origin, so no torus witness at any period cap
# closes them; each of their 11 classes has a rectangle lasso of at most
# 4 cells (ROADMAP direction 1), a witness kind not yet supported.
N2_SUMMARY = {
    "n": 2,
    "total_systems": 512,
    "bounded": 314,
    "has_coloring": 176,
    "unknown": 22,
    "mu_exact": None,
    "mu_lower_bound": 6,
    "champion": 41,
}


def test_total_systems():
    assert qc.total_systems(1) == 4
    assert qc.total_systems(2) == 512
    assert qc.total_systems(3) == 3 * 2**18
    for bad in (0, 9, -1, True, "2"):
        with pytest.raises(qc.InputError):
            qc.total_systems(bad)


def test_system_index_roundtrip():
    for index in range(qc.total_systems(2)):
        s = qc.system_at(2, index)
        assert qc.system_index(s) == index
    with pytest.raises(qc.InputError):
        qc.system_at(2, 512)
    with pytest.raises(qc.InputError):
        qc.system_at(2, -1)
    with pytest.raises(qc.InputError):
        qc.system_at(2, True)


def test_enumeration_order_is_origin_then_h_then_v():
    listed = [qc.system_at(1, i) for i in range(qc.total_systems(1))]
    assert [(s.origin, s.h_mask, s.v_mask) for s in listed] == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 0),
        (0, 1, 1),
    ]
    # v varies fastest, then h, then origin
    s0, s1 = qc.system_at(2, 0), qc.system_at(2, 1)
    assert (s0.h_mask, s0.v_mask) == (0, 0)
    assert (s1.h_mask, s1.v_mask) == (0, 1)
    assert qc.system_at(2, 256).origin == 1


def test_one_color_census_against_brute():
    # oracle first: re-derive each verdict from the definitions
    records = list(census_records(1, CAPS))
    assert len(records) == 4
    for rec in records:
        sys = rec.system
        brute_len = brute_max_length(sys, 5)
        if isinstance(rec.verdict, qc.Bounded):
            assert rec.verdict.max_len == brute_len
            assert not brute_torus_colorings(sys, 1, 1)
        else:
            assert isinstance(rec.verdict, qc.HasColoring)
            assert brute_len == 5  # hit the oracle cap
    lengths = sorted(
        r.verdict.max_len for r in records if isinstance(r.verdict, qc.Bounded)
    )
    assert lengths == [1, 1, 2]


def test_mu_one_is_three():
    summary = qc.run_census(1, CAPS)
    assert (summary.mu_exact, summary.mu_lower_bound) == (3, 3)


def test_one_color_summary_champion():
    summary = qc.run_census(1, CAPS)
    assert summary.champion == 1
    assert qc.system_at(1, 1).v_mask == 1  # the H-less ladder, two tiles tall


def test_two_color_summary_is_pinned():
    summary = qc.run_census(2, CAPS)
    assert qc.summary_to_json(summary) == N2_SUMMARY


def test_record_line_roundtrip():
    for rec in census_records(2, CAPS, start=0, stop=64):
        record_back = qc.parse_record_line(2, qc.record_line(rec))
        assert record_back.system_index == rec.system_index
        assert record_back.system == rec.system
        assert record_back.verdict == rec.verdict
        assert record_back.canonical_id == rec.canonical_id
    # every verdict kind, whichever the census meets in that range
    system = qc.system_at(2, 0)
    for verdict in (
        qc.Bounded(max_len=7),
        qc.HasColoring(qc.PeriodicWitness(p=1, q=1, rows=((0,),))),
        qc.Unknown(depth_reached=64, period_cap_reached=4),
    ):
        rec = qc.CensusRecord(0, system, verdict, qc.canonical_id(system))
        assert qc.parse_record_line(2, qc.record_line(rec)) == rec


def test_record_line_parse_is_strict():
    with pytest.raises(qc.FileFormatError):
        qc.parse_record_line(2, "not json")
    with pytest.raises(qc.FileFormatError):
        qc.parse_record_line(2, '{"system_index": 0}')
    good = qc.record_line(next(census_records(2, CAPS, stop=1)))
    with pytest.raises(qc.FileFormatError):
        qc.parse_record_line(2, good.replace("bounded", "mystery"))
    with pytest.raises(qc.FileFormatError):
        qc.parse_record_line(2, good.replace('"system_index":0', '"system_index":true'))

    def line(**fields):
        return json.dumps({"system_index": 0, "canonical_id": "2.0.0.0", **fields})

    # no verdict kind, and a stray detail key
    for bad in (
        line(detail={"max_len": 7}),
        line(verdict="bounded", detail={"max_len": 7, "note": "hi"}),
    ):
        with pytest.raises(qc.FileFormatError):
            qc.parse_record_line(2, bad)
    # detail fields out of range, or bools, are rejected by the verdicts
    # themselves, and the parser names the field
    unknown = {"depth_reached": 64, "period_cap_reached": 4}
    for field, bad in (
        ("max_len", -4), ("max_len", 0), ("max_len", True), ("max_len", 2.0),
        ("depth_reached", -1), ("depth_reached", False),
        ("period_cap_reached", 0), ("period_cap_reached", True),
    ):
        if field == "max_len":
            cls, kind, detail = qc.Bounded, "bounded", {"max_len": bad}
        else:
            cls, kind, detail = qc.Unknown, "unknown", {**unknown, field: bad}
        with pytest.raises(qc.FileFormatError, match=field):
            qc.parse_record_line(2, line(verdict=kind, detail=detail))
        with pytest.raises(qc.InputError, match=field):
            cls(**detail)
    assert qc.Unknown(depth_reached=0, period_cap_reached=1).depth_reached == 0


CAPPED = qc.SearchBudget(depth_cap=12, period_cap=2, node_cap=6)


def _compact_json(rec):
    """record_line's oracle: the record object through json.dumps."""
    v = rec.verdict
    if isinstance(v, qc.Bounded):
        detail = {"max_len": v.max_len}
    elif isinstance(v, qc.HasColoring):
        detail = qc.witness_to_json(v.witness)
    else:
        detail = {"depth_reached": v.depth_reached, "period_cap_reached": v.period_cap_reached}
    obj = {
        "system_index": rec.system_index,
        "canonical_id": rec.canonical_id,
        "verdict": qc.verdict_kind(v),
        "detail": detail,
    }
    return json.dumps(obj, separators=(",", ":"))


@pytest.mark.parametrize("budget", [CAPS, CAPPED], ids=["32/4", "12/2 node_cap=6"])
def test_record_line_is_compact_json(budget):
    kinds = set()
    shapes = set()
    for rec in census_records(2, budget):
        assert qc.record_line(rec) == _compact_json(rec)
        kinds.add(qc.verdict_kind(rec.verdict))
        if isinstance(rec.verdict, qc.HasColoring):
            shapes.add((rec.verdict.witness.p, rec.verdict.witness.q))
    assert kinds == {"bounded", "has_coloring", "unknown"}
    assert {(1, 1), (2, 1), (1, 2)} <= shapes
    if budget == CAPS:
        assert (2, 2) in shapes


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "budget, digest",
    [
        (CAPS, "68453874ed4111c8927ae206dd609c7c2ff5814fdfac3aa7ed8409505a76929d"),
        (CAPPED, "0eb9faf1c515abbf70693066e780f6b2645139d89f4b19b17342a2029e2b7081"),
    ],
    ids=["32/4", "12/2 node_cap=6"],
)
@pytest.mark.parametrize("jobs", [1, 3])
def test_two_color_census_bytes_are_pinned(tmp_path, budget, digest, jobs):
    out = tmp_path / "n2.jsonl"
    qc.run_census(2, budget, jobs=jobs, out_path=str(out))
    assert _sha256(out) == digest


def test_three_color_census_prefix_bytes_are_pinned(tmp_path):
    # two chunks of 4,096 systems and five more, at the default budget
    out = tmp_path / "n3.jsonl"
    assert qc.run_census(3, qc.SearchBudget(), out_path=str(out), stop_after=8197) is None
    assert _sha256(out) == "127854f9d1642f7089443d8ff0e9c7b72d29c0c3c75acc0ad68edfdc4403f757"


def test_dedupe_matches_direct_classification():
    budget = qc.SearchBudget(depth_cap=16, period_cap=3)
    for rec in census_records(2, budget):
        direct = qc.classify(rec.system, budget)
        assert qc.verdict_kind(rec.verdict) == qc.verdict_kind(direct)
        if isinstance(rec.verdict, qc.Bounded):
            assert rec.verdict.max_len == direct.max_len


def test_relabeled_witnesses_certify_their_own_system():
    for rec in census_records(2, CAPS):
        if isinstance(rec.verdict, qc.HasColoring):
            assert qc.check_witness(rec.system, rec.verdict.witness) is None


def test_verdicts_invariant_under_transposition():
    # swapping H and V transposes every coloring: the verdict kind stays,
    # and so does the number of complete diagonals of a longest sequence;
    # every n=2 system, then a seeded n=3 sample at the default budget,
    # where all three kinds occur and the growing walk runs both ways round
    rng = random.Random(5)
    cases = [(qc.system_at(2, index), CAPS) for index in range(512)]
    cases += [(random_system(rng, 3), qc.SearchBudget()) for _ in range(600)]
    kinds = set()
    for s, budget in cases:
        base = qc.classify(s, budget)
        other = qc.classify(qc.ColoringSystem(s.n, s.origin, s.v_mask, s.h_mask), budget)
        assert qc.verdict_kind(other) == qc.verdict_kind(base), s
        if isinstance(base, qc.Bounded):
            assert sum(qc.tile_at(other.max_len)) == sum(qc.tile_at(base.max_len)), s
        if s.n == 3:
            kinds.add(qc.verdict_kind(base))
    assert kinds == {"bounded", "has_coloring", "unknown"}


def test_every_bounded_n3_class_matches_the_length_profile():
    # the frontier sweep shares no walk with exhaustion: for each of the
    # n=3 census's bounded classes at the census budget, it counts
    # sequences of length max_len and none of length max_len + 1
    budget = qc.SearchBudget()
    bounded = {}
    for _, cid, _, verdict in census._classified(3, budget, 0, qc.total_systems(3), {}):
        if isinstance(verdict, qc.Bounded) and cid not in bounded:
            _, _, h, v = cid.split(".")
            bounded[cid] = (qc.ColoringSystem(3, 0, int(h, 16), int(v, 16)), verdict.max_len)
    assert len(bounded) == 59_550
    for cid, (s, max_len) in bounded.items():
        counts = qc.length_profile(s, qc.SearchBudget(depth_cap=max_len + 1)).counts
        assert counts[max_len - 1] > 0 and counts[max_len] == 0, cid


def test_canonical_id_matches_canonical_form():
    for rec in census_records(2, CAPS, start=100, stop=140):
        assert rec.canonical_id == qc.canonical_id(qc.canonical_form(rec.system))


def _totals(n, records):
    totals = census._Totals(n)
    for rec in records:
        totals.add(rec.system_index, rec.verdict)
    return totals.summary()


def test_totals_count_and_certify_only_a_full_set():
    records = list(census_records(1, CAPS))
    summary = _totals(1, records)
    assert (summary.bounded, summary.has_coloring, summary.unknown) == (3, 1, 0)
    assert summary.mu_exact == 3
    # a partial record set cannot certify exactness
    partial = _totals(1, records[:3])
    assert partial.mu_exact is None
    assert partial.mu_lower_bound == 3


def test_tiny_depth_cap_weakens_the_bound():
    # a cap of 2 cannot certify the length-2 system bounded (that needs the
    # absence of length-3 sequences), so only Bounded(1) is observed and the
    # reported bound drops to 2; still sound, just weaker
    summary = qc.run_census(1, qc.SearchBudget(depth_cap=2, period_cap=4))
    assert (summary.mu_exact, summary.mu_lower_bound) == (None, 2)


def test_bound_is_monotone_in_color_count():
    # a bounded system keeps its max length when a fresh unusable color is
    # added, so the lower bound cannot drop as n grows
    assert qc.run_census(1, CAPS).mu_lower_bound <= qc.run_census(2, CAPS).mu_lower_bound


def test_embedded_one_color_system_bounds_two_colors():
    embedded = qc.ColoringSystem.from_pairs(2, 0, [], [(0, 0)])
    assert brute_max_length(embedded, 5) == 2  # color 1 appears in no pair
    verdict = qc.classify(embedded, qc.SearchBudget(depth_cap=8, period_cap=2))
    assert verdict == qc.Bounded(max_len=2)
    summary = qc.run_census(2, qc.SearchBudget(depth_cap=8, period_cap=2))
    assert summary.mu_lower_bound >= 3


def test_run_census_streams_jsonl(tmp_path):
    out = tmp_path / "n2.jsonl"
    summary = qc.run_census(2, CAPS, out_path=str(out))
    lines = out.read_text().splitlines()
    assert len(lines) == 512
    assert [qc.parse_record_line(2, ln).system_index for ln in lines] == list(range(512))
    assert not os.path.exists(str(out) + ".cursor")
    sidecar = tmp_path / "n2.jsonl.summary.json"
    # the sidecar lists the summary fields in CensusSummary's order
    assert sidecar.read_text() == json.dumps(N2_SUMMARY, indent=2) + "\n"
    assert qc.summary_to_json(summary) == N2_SUMMARY


def test_run_census_workers_agree(tmp_path):
    solo = tmp_path / "solo.jsonl"
    pooled = tmp_path / "pooled.jsonl"
    qc.run_census(2, CAPS, jobs=1, out_path=str(solo))
    summary = qc.run_census(2, CAPS, jobs=3, out_path=str(pooled))
    assert solo.read_bytes() == pooled.read_bytes()
    # the champion survives merging the chunk totals, ties included
    assert qc.summary_to_json(summary) == N2_SUMMARY


def test_run_classifies_each_class_once(monkeypatch):
    # at jobs=1 the range is cut into 8 chunks, and a class spans several of
    # them; a paused run classifies only systems it writes
    classified = []

    def counting(sys, budget):
        classified.append(sys)
        return qc.classify(sys, budget)

    monkeypatch.setattr(census, "classify", counting)
    qc.run_census(2, CAPS)
    classes = {qc.canonical_form(qc.system_at(2, i)) for i in range(qc.total_systems(2))}
    assert sorted(map(qc.system_index, classified)) == sorted(map(qc.system_index, classes))
    classified.clear()
    qc.run_census(2, CAPS, stop_after=3)
    assert 1 <= len(classified) <= 3


def test_capped_chunks_match_direct_records(tmp_path, monkeypatch):
    # three chunks of at most _CHUNK_CAP systems, the last one partial
    budget = qc.SearchBudget(depth_cap=12, period_cap=2)
    cap = census._CHUNK_CAP
    stop = 2 * cap + 5
    out = tmp_path / "n3.jsonl"
    assert qc.run_census(3, budget, jobs=2, out_path=str(out), stop_after=stop) is None
    expected = "".join(qc.record_line(rec) + "\n" for rec in census_records(3, budget, stop=stop))
    assert out.read_text() == expected
    spans = []

    def record_span(task):
        spans.append(task[2:])
        return [], census._Totals(3)

    monkeypatch.setattr(census, "_chunk", record_span)
    qc.run_census(3, budget, stop_after=stop)
    assert spans == [(0, cap), (cap, 2 * cap), (2 * cap, stop)]


def _tie_counts(sys):
    """How many origin-fixing bijections reach the least renamed H, and how
    many reach the canonical form itself."""
    renamed = [
        brute_rename(sys, perm)
        for perm in itertools.permutations(range(sys.n))
        if perm[sys.origin] == 0
    ]
    least = min((r.h_mask, r.v_mask) for r in renamed)
    h_ties = sum(r.h_mask == least[0] for r in renamed)
    return h_ties, sum((r.h_mask, r.v_mask) == least for r in renamed)


def test_run_canonicalization_matches_canonicalize(monkeypatch):
    # the census canonicalizes once per run of equal (origin, H); every
    # system must still get canonicalize's id and its first bijection, as
    # the brute-force definition works them out
    monkeypatch.setattr(census, "classify", lambda sys, budget: qc.Unknown(0, 1))
    rng = random.Random(7)
    ranges = [(2, index, index + 1) for index in range(qc.total_systems(2))]
    ranges.append((2, 0, qc.total_systems(2)))
    for n in (3, 4):
        run = 1 << n * n
        diagonal = sum(1 << (c * n + c) for c in range(n))
        for origin in range(n):
            for h_mask in (0, run - 1, diagonal, rng.randrange(run), rng.randrange(run)):
                base = (origin * run + h_mask) * run
                inside = base + rng.randrange(1, run - 20)
                ranges.append((n, base, base + 20))
                ranges.append((n, inside, inside + 20))
                ranges.append((n, max(base - 3, 0), base + 3))  # across two runs
    h_tied = v_broken = first_wins = 0
    for n, start, stop in ranges:
        got = list(census._classified(n, CAPS, start, stop, {}))
        assert [index for index, *_ in got] == list(range(start, stop))
        for index, cid, perm, _ in got:
            sys = qc.system_at(n, index)
            canon, first = brute_canonicalize(sys)
            assert (cid, perm) == (qc.canonical_id(canon), first), index
            h_ties, ties = _tie_counts(sys)
            h_tied += h_ties > 1
            v_broken += h_ties > 1 and ties == 1
            first_wins += ties > 1
    # V must pick among tied bijections, and equal keys keep the first one
    assert h_tied > 100 and v_broken > 100 and first_wins > 100


def _slices(n, rng):
    """The whole run of V masks at color count n, and slices that start and
    end mid-run: inside one row-0 block, across one, and up to the run's end."""
    run = 1 << n * n
    spans = [(0, run)]
    for length in (1, 2, (1 << n) + 3, 500):
        lo = rng.randrange(1, max(run - length, 2))
        spans.append((lo, min(lo + length, run)))
    spans.append((max(run - 37, 1), run))
    return spans


def test_run_renaming_matches_permute_mask():
    # the census renames a run's V masks through a per-bijection column
    # table; every bijection must give what systems._permute_mask gives
    rng = random.Random(18)
    for n in (1, 2, 3, 4):
        run = 1 << n * n
        for perm in itertools.permutations(range(n)):
            cols, shifts = census._columns(perm)
            assert len(cols) == 1 << n
            for lo, hi in _slices(n, rng):
                got = census._renamed(cols, shifts, lo, hi)
                assert len(got) == hi - lo, (perm, lo, hi)
                # a whole n=4 run is 65,536 masks: check it is a renaming of
                # all of them, and compare every 37th mask
                step = 37 if hi - lo == run and n == 4 else 1
                if step > 1:
                    assert sorted(got) == list(range(run))
                for v in range(lo, hi, step):
                    assert got[v - lo] == systems._permute_mask(v, perm, n), (perm, v)
    # at n = 8 a run has 2^64 masks; the table stays at 2^n entries, well
    # under n * 2^n, and short slices rename as long ones do
    n = 8
    for perm in ((0, 1, 2, 3, 4, 5, 6, 7), (0, 7, 6, 5, 4, 3, 2, 1), tuple(rng.sample(range(8), 8))):
        cols, shifts = census._columns(perm)
        assert len(cols) <= n << n
        for lo in (0, rng.randrange(1 << 63), (1 << 64) - 300):
            for length in (1, 2, 300):
                hi = min(lo + length, 1 << 64)
                got = census._renamed(cols, shifts, lo, hi)
                assert got == [systems._permute_mask(v, perm, n) for v in range(lo, hi)]


def test_census_records_stream_from_long_runs(monkeypatch):
    # a run holds 2^(n^2) systems, and with H = 0 every origin-fixing
    # bijection ties (24 at n = 5, 5,040 at n = 8): records still come one
    # short slice at a time, each as canonical_id and system_at give it
    real = census._renamed

    def bounded(cols, shifts, lo, hi):
        assert hi - lo <= census._RENAMED_CAP, (lo, hi)
        return real(cols, shifts, lo, hi)

    monkeypatch.setattr(census, "_renamed", bounded)
    for n, start in ((5, 0), (5, (1 << 25) - 2), (8, 0), (8, 3 << 64)):
        t0 = time.perf_counter()
        records = census_records(n, qc.SearchBudget(), start)
        got = [next(records) for _ in range(3)]
        assert time.perf_counter() - t0 < 10.0, n
        for index, rec in enumerate(got, start):
            assert rec.system_index == index and rec.system == census.system_at(n, index)
            assert rec.canonical_id == qc.canonical_id(rec.system)


def test_census_builds_each_tie_table_once_per_run(monkeypatch):
    # n = 8, origin 0, H = 0: all 7! = 5,040 origin-fixing bijections tie,
    # and 100 records span several slices of _RENAMED_CAP // 5,040 masks;
    # each tie's column table is built once for the run, not once per slice
    built = []
    real = census._columns

    def counting(perm):
        built.append(perm)
        return real(perm)

    monkeypatch.setattr(census, "_columns", counting)
    start = 12_345
    got = list(census_records(8, qc.SearchBudget(), start, start + 100))
    assert len(built) == len(set(built)) == 5_040
    assert 100 > census._RENAMED_CAP // 5_040  # the records do span slices
    for index, rec in enumerate(got, start):
        assert rec.system_index == index and rec.system == census.system_at(8, index)
        assert rec.canonical_id == qc.canonical_id(rec.system)


def test_census_loop_renames_per_run_not_per_record(monkeypatch):
    # _least_h renames each run's H once per origin-fixing bijection; the V
    # masks cost no _permute_mask call
    calls = []
    real = systems._permute_mask

    def counting(mask, perm, n):
        calls.append(mask)
        return real(mask, perm, n)

    monkeypatch.setattr(systems, "_permute_mask", counting)
    monkeypatch.setattr(census, "_classes", {})
    runs = 6
    lines, _ = census._chunk((3, CAPS, 512 * 40, 512 * (40 + runs)))
    assert len(lines) == 512 * runs
    assert len(calls) == 2 * runs  # two bijections fix the origin at n = 3
    assert not hasattr(census, "_permute_mask") and not hasattr(census, "_class_id")


def test_record_line_writes_every_color_of_a_wide_witness():
    # twelve colors: the digit map must write 8, 9, 10 and 11 as well
    n = 12
    row = tuple(range(n))
    witness = qc.PeriodicWitness(p=n, q=2, rows=(row, row[::-1]))
    rec = census.CensusRecord(0, qc.ColoringSystem(n, 0, 0, 0), qc.HasColoring(witness), "12.0.0.0")
    assert qc.record_line(rec) == _compact_json(rec)
    assert '"cells":[[0,1,2,3,4,5,6,7,8,9,10,11],[11,10,' in qc.record_line(rec)
    # through a bijection, each cell is written as its preimage
    perm = tuple(random.Random(3).sample(range(n), n))
    back = {pc: c for c, pc in enumerate(perm)}
    relabeled = qc.PeriodicWitness(n, 2, tuple(tuple(back[c] for c in r) for r in witness.rows))
    expected = dataclasses.replace(rec, verdict=qc.HasColoring(relabeled))
    assert census._line(0, rec.canonical_id, rec.verdict, perm) == _compact_json(expected)


def test_census_records_checks_its_range_when_called():
    # census_records is not a generator: a bad range fails at the call
    for start, stop in ((5.0, None), (0, 10**9), (-1, 3), (4, 3), (0, True)):
        with pytest.raises(qc.InputError, match="record range"):
            census_records(2, CAPS, start, stop)
    with pytest.raises(qc.InputError):
        census_records(9, CAPS)


def _direct_lines(n, budget, start, stop):
    """Record lines built one system at a time: brute_canonicalize, classify each
    class once, relabel a witness through the inverse bijection, json.dumps.
    Also counts the witnesses that relabeling through the bijection itself
    would get wrong."""
    classes = {}
    lines = []
    inverse_needed = 0
    for index in range(start, stop):
        sys = qc.system_at(n, index)
        canon, perm = brute_canonicalize(sys)
        if canon not in classes:
            classes[canon] = qc.classify(canon, budget)
        verdict = classes[canon]
        if isinstance(verdict, qc.HasColoring):
            back = {pc: c for c, pc in enumerate(perm)}
            w = verdict.witness
            rows = tuple(tuple(back[c] for c in row) for row in w.rows)
            inverse_needed += rows != tuple(tuple(perm[c] for c in row) for row in w.rows)
            verdict = qc.HasColoring(qc.PeriodicWitness(p=w.p, q=w.q, rows=rows))
            assert qc.check_witness(sys, verdict.witness) is None
        rec = census.CensusRecord(index, sys, verdict, qc.canonical_id(canon))
        lines.append(_compact_json(rec) + "\n")
    return lines, inverse_needed


def test_census_lines_match_direct_reference(tmp_path, monkeypatch):
    # every n=4 chunk starts inside a 65,536-long run of one (origin, H), and
    # origin 0 with an empty H ties all six bijections that fix color 0
    budget = qc.SearchBudget(depth_cap=12, period_cap=2)
    stop = 2 * census._CHUNK_CAP + 5
    out = tmp_path / "n4.jsonl"
    assert qc.run_census(4, budget, jobs=2, out_path=str(out), stop_after=stop) is None
    assert _tie_counts(qc.system_at(4, 0)) == (6, 6)
    assert out.read_text() == "".join(_direct_lines(4, budget, 0, stop)[0])
    # origin 2 at n=3 has a canonicalizing bijection that is not its own inverse
    monkeypatch.setattr(census, "_classes", {})
    start = (2 * 512 + 0x0A5) * 512 - 300
    lines, _ = census._chunk((3, budget, start, start + 600))
    expected, inverse_needed = _direct_lines(3, budget, start, start + 600)
    assert [line + "\n" for line in lines] == expected
    assert inverse_needed > 0


def test_stop_after_pauses_and_resume_completes(tmp_path):
    out = tmp_path / "paused.jsonl"
    assert qc.run_census(2, CAPS, out_path=str(out), stop_after=100) is None
    assert len(out.read_text().splitlines()) == 100
    assert os.path.exists(str(out) + ".cursor")
    summary = qc.run_census(2, CAPS, out_path=str(out), resume=True)
    assert qc.summary_to_json(summary) == N2_SUMMARY
    reference = tmp_path / "reference.jsonl"
    qc.run_census(2, CAPS, out_path=str(reference))
    assert out.read_bytes() == reference.read_bytes()


def test_cursor_holds_only_the_budget(tmp_path):
    out = tmp_path / "paused.jsonl"
    qc.run_census(2, CAPS, out_path=str(out), stop_after=100)
    with open(str(out) + ".cursor") as fh:
        cursor = json.load(fh)
    assert cursor == {"n": 2, "depth_cap": 32, "period_cap": 4, "node_cap": None}


def test_resume_accepts_a_cursor_with_a_position(tmp_path):
    # older runs also wrote next_index into the cursor; resume ignores it and
    # re-scans the record file for the position
    out = tmp_path / "paused.jsonl"
    cursor = str(out) + ".cursor"
    qc.run_census(2, CAPS, out_path=str(out), stop_after=100)
    with open(cursor) as fh:
        payload = json.load(fh)
    payload["next_index"] = 10
    with open(cursor, "w") as fh:
        json.dump(payload, fh)
    summary = qc.run_census(2, CAPS, out_path=str(out), resume=True)
    assert qc.summary_to_json(summary) == N2_SUMMARY
    reference = tmp_path / "reference.jsonl"
    qc.run_census(2, CAPS, out_path=str(reference))
    assert out.read_bytes() == reference.read_bytes()


def test_resume_truncates_torn_tail(tmp_path):
    out = tmp_path / "torn.jsonl"
    qc.run_census(2, CAPS, out_path=str(out), stop_after=40)
    with open(out, "a") as fh:
        fh.write('{"system_index": 40, "canonical')  # interrupted mid-record
    summary = qc.run_census(2, CAPS, out_path=str(out), resume=True)
    assert qc.summary_to_json(summary) == N2_SUMMARY
    assert len(out.read_text().splitlines()) == 512


def test_resume_truncates_at_a_record_with_a_bad_field(tmp_path):
    # a record that parses as JSON but whose verdict cannot be built ends
    # the good run: resume cuts the file there and rewrites the rest
    out = tmp_path / "bad.jsonl"
    qc.run_census(2, CAPS, out_path=str(out), stop_after=40)
    lines = out.read_text().splitlines(keepends=True)
    bad = next(i for i, line in enumerate(lines) if '"verdict":"bounded"' in line)
    record = json.loads(lines[bad])
    record["detail"]["max_len"] = -4
    lines[bad] = json.dumps(record, separators=(",", ":")) + "\n"
    out.write_text("".join(lines))
    assert qc.run_census(2, CAPS, out_path=str(out), resume=True, stop_after=0) is None
    assert out.read_text() == "".join(lines[:bad])
    summary = qc.run_census(2, CAPS, out_path=str(out), resume=True)
    assert qc.summary_to_json(summary) == N2_SUMMARY
    assert len(out.read_text().splitlines()) == 512


def test_resume_rejects_mismatched_budget(tmp_path):
    out = tmp_path / "mix.jsonl"
    qc.run_census(2, CAPS, out_path=str(out), stop_after=10)
    with pytest.raises(qc.InputError):
        qc.run_census(
            2, qc.SearchBudget(depth_cap=8, period_cap=4), out_path=str(out), resume=True
        )


@pytest.mark.parametrize("damage", ["deleted", "not json"])
def test_resume_rejects_missing_or_unreadable_cursor(tmp_path, damage):
    # the cursor is the only record of the budget, so resume cannot go on without it
    out = tmp_path / "paused.jsonl"
    cursor = str(out) + ".cursor"
    qc.run_census(2, CAPS, out_path=str(out), stop_after=10)
    if damage == "deleted":
        os.remove(cursor)
    else:
        with open(cursor, "w") as fh:
            fh.write(damage)
    with pytest.raises(qc.InputError):
        qc.run_census(2, CAPS, out_path=str(out), resume=True)


def test_run_census_validates_knobs(tmp_path):
    with pytest.raises(qc.InputError):
        qc.run_census(2, CAPS, jobs=0)
    with pytest.raises(qc.InputError):
        qc.run_census(2, CAPS, jobs=True)
    with pytest.raises(qc.InputError):
        qc.run_census(2, CAPS, resume=True)  # nothing to resume from
