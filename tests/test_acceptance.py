"""The eight gate checks for the workbench, one test per check, each
printing a single PASS line with its measured wall time.

Run ``pytest tests/test_acceptance.py -v`` for the one-line-per-check
verdict listing.  Wall-clock limits are asserted where a check carries
one; they are generous on current hardware but real, so a performance
regression fails the gate rather than slipping through.

Ordering inside each test matters: wherever a numeric answer is pinned,
an oracle that does not share code with the engine computes it first,
and the engine is then held to the oracle.
"""

import json
import random
import time
from itertools import product, starmap

import pytest

import quadcolor as qc
from quadcolor.cli import main
from conftest import brute_rename, random_accepted_sequence, random_system
from test_census import N2_SUMMARY

CAPS = qc.SearchBudget(depth_cap=32, period_cap=4)


def _report(label: str, t0: float, limit: float = None) -> None:
    elapsed = time.perf_counter() - t0
    print(f"PASS {label} ({elapsed:.2f} s)")
    if limit is not None:
        assert elapsed < limit, f"{label}: {elapsed:.2f} s exceeds the {limit:.0f} s limit"


def _filtration(sys, length):
    """All accepted sequences of exactly ``length``, by filtering the full
    n^length product.  Adjacency is derived from tile coordinates alone, so
    nothing here leans on the checker's index arithmetic."""
    tiles = [qc.tile_at(k) for k in range(length)]
    pos = {t: k for k, t in enumerate(tiles)}
    horiz = [(k, pos[(x + 1, y)]) for k, (x, y) in enumerate(tiles) if (x + 1, y) in pos]
    vert = [(k, pos[(x, y + 1)]) for k, (x, y) in enumerate(tiles) if (x, y + 1) in pos]
    origin, h_ok, v_ok = sys.origin, sys.h_allows, sys.v_allows
    return [
        seq
        for seq in product(range(sys.n), repeat=length)
        if seq[0] == origin
        and all(h_ok(seq[i], seq[j]) for i, j in horiz)
        and all(v_ok(seq[i], seq[j]) for i, j in vert)
    ]


# -- 1: bundled example and its corruption sweep --------------------------------


def _corruption_breaks(sys, cells, tile, color):
    """Does recoloring ``tile`` to ``color`` violate the origin pin or a
    relation against a neighbor inside the triangle?  Checked straight from
    the grid, independently of the checker."""
    x, y = tile
    if tile == (0, 0) and color != sys.origin:
        return True
    left, right = cells.get((x - 1, y)), cells.get((x + 1, y))
    below, above = cells.get((x, y - 1)), cells.get((x, y + 1))
    if left is not None and not sys.h_allows(left, color):
        return True
    if right is not None and not sys.h_allows(color, right):
        return True
    if below is not None and not sys.v_allows(below, color):
        return True
    if above is not None and not sys.v_allows(color, above):
        return True
    return False


def test_bundled_example_accepted_and_corruptions_rejected(
    tmp_path, example_system, example_triangle
):
    t0 = time.perf_counter()
    sys_path = str(tmp_path / "system.json")
    tri_path = str(tmp_path / "triangle.json")
    qc.save_system(example_system, sys_path)
    qc.save_triangle(example_triangle, tri_path)

    assert example_system.n == 13
    assert len(example_system.h_pairs()) == 36
    assert len(example_system.v_pairs()) == 53
    assert len(example_triangle.seq) == 55
    assert main(["check", sys_path, tri_path]) == 0

    # all 55 x 12 single-tile corruptions, swept through the function the
    # check command dispatches to; a sample goes through the command itself
    rejected = accepted = 0
    cli_samples = []
    seq = example_triangle.seq
    cells = {qc.tile_at(k): c for k, c in enumerate(seq)}
    for tile in sorted(cells):
        k = qc.tile_index(*tile)
        for color in range(13):
            if color == cells[tile]:
                continue
            bad = qc.TriangleColoring(seq[:k] + (color,) + seq[k + 1:])
            verdict = qc.check_triangle(example_system, bad)
            breaks = _corruption_breaks(example_system, cells, tile, color)
            assert (verdict is not None) == breaks, (tile, color)
            if breaks:
                rejected += 1
                if len(cli_samples) < 8:
                    cli_samples.append(bad)
            else:
                accepted += 1
    assert rejected + accepted == 55 * 12
    assert rejected > 0

    for bad in cli_samples:
        qc.save_triangle(bad, tri_path)
        assert main(["check", sys_path, tri_path]) == 1
    _report("bundled example accepted, in-domain corruptions rejected", t0, limit=1.0)


# -- 2: diagonal codec ------------------------------------------------------------


def test_diagonal_codec_hand_values_and_million_roundtrips():
    t0 = time.perf_counter()
    figure = {
        (0, 0): 0, (1, 0): 2, (2, 0): 5, (3, 0): 9, (4, 0): 14,
        (0, 1): 1, (1, 1): 4, (2, 1): 8, (3, 1): 13,
        (0, 2): 3, (1, 2): 7, (2, 2): 12,
        (0, 3): 6, (1, 3): 11,
        (0, 4): 10,
    }
    assert len(figure) == 15
    for tile, index in figure.items():
        assert qc.tile_index(*tile) == index
        assert qc.tile_at(index) == tile
    # index -> tile -> index on a million indices; since each index hits a
    # distinct tile, the same pass also witnesses tile -> index -> tile on
    # the million tiles those indices map to
    million = range(10**6)
    assert list(starmap(qc.tile_index, map(qc.tile_at, million))) == list(million)
    _report("diagonal codec: 15 hand values, 10^6 roundtrips both ways", t0, limit=1.0)


# -- 3: enumeration vs brute-force filtration --------------------------------------


def test_enumeration_matches_brute_filtration():
    t0 = time.perf_counter()
    rng = random.Random(186225)
    for trial in range(200):
        sys = random_system(rng, n=2 + trial % 2)
        for length in range(1, 11):
            got = qc.enumerate_sequences(sys, length)
            assert set(got.sequences) == set(_filtration(sys, length)), (trial, length)
    _report("enumeration set-exact vs n^L filtration, 200 systems, L <= 10", t0, limit=120.0)


# -- 4: the one-color bound -----------------------------------------------------


def test_one_color_bound_is_three():
    t0 = time.perf_counter()
    # oracle first: a one-color system colors the quadrant iff both
    # relations allow (0, 0); otherwise its longest sequence is found by
    # exhaustive filtration (lengths here are tiny)
    oracle = []
    for h in (0, 1):
        for v in (0, 1):
            sys = qc.ColoringSystem(n=1, origin=0, h_mask=h, v_mask=v)
            if h == 1 and v == 1:
                oracle.append(("has_coloring", None))
            else:
                longest = max(L for L in range(1, 6) if _filtration(sys, L))
                oracle.append(("bounded", longest))
    bounded_lengths = sorted(L for kind, L in oracle if kind == "bounded")
    assert bounded_lengths == [1, 1, 2]
    assert sum(1 for kind, _ in oracle if kind == "has_coloring") == 1
    oracle_mu = 1 + max(bounded_lengths)
    assert oracle_mu == 3

    # the engine is held to the oracle, verdict by verdict
    records = list(qc.census_records(1, CAPS))
    assert len(records) == 4
    for record, (kind, longest) in zip(records, oracle):
        assert qc.verdict_kind(record.verdict) == kind
        if kind == "bounded":
            assert record.verdict.max_len == longest
    summary = qc.run_census(1, CAPS)
    assert (summary.mu_exact, summary.mu_lower_bound) == (3, 3)
    _report("one-color census: bounded lengths {1,1,2}, exact bound 3", t0, limit=1.0)


# -- 5: the two-color census ----------------------------------------------------


def test_two_color_census_deterministic_and_sound(tmp_path):
    t0 = time.perf_counter()
    solo = tmp_path / "solo.jsonl"
    pooled = tmp_path / "pooled.jsonl"
    summary = qc.run_census(2, CAPS, jobs=1, out_path=str(solo))
    qc.run_census(2, CAPS, jobs=8, out_path=str(pooled))
    assert solo.read_bytes() == pooled.read_bytes()

    records = [qc.parse_record_line(2, line) for line in solo.read_text().splitlines()]
    assert [r.system_index for r in records] == list(range(512))
    for record in records:
        verdict = record.verdict
        if isinstance(verdict, qc.Bounded):
            longer = qc.enumerate_sequences(record.system, verdict.max_len + 1)
            assert longer.sequences == ()
        elif isinstance(verdict, qc.HasColoring):
            triangle = verdict.witness.expand(50)
            assert qc.check_triangle(record.system, triangle) is None

    # the counts and the bound are regression pins, first computed by this
    # same census and frozen; any drift here is a behavior change
    assert qc.summary_to_json(summary) == N2_SUMMARY
    _report("two-color census: 512 records, 1 vs 8 workers byte-identical, sound", t0, limit=60.0)


# -- 6: prefix closure -----------------------------------------------------------


def test_accepted_sequences_are_prefix_closed(example_system):
    t0 = time.perf_counter()
    rng = random.Random(73501)
    sampled = 0
    while sampled < 1000:
        if sampled % 5 == 4:
            sys = example_system
        else:
            sys = random_system(rng, n=rng.randrange(2, 7))
        seq = random_accepted_sequence(rng, sys, max_len=rng.randrange(1, 40))
        if qc.check_sequence(sys, seq) is not None:
            continue  # walk died before the origin constraint, skip
        sampled += 1
        for cut in range(1, len(seq) + 1):
            assert qc.check_sequence(sys, seq[:cut]) is None, (sys, seq, cut)
    _report("prefix closure on 1000 accepted sequences", t0)


# -- 7: chain construction ---------------------------------------------------------


def test_chain_reaches_horizon_200(example_system):
    t0 = time.perf_counter()
    chain = qc.build_chain(example_system, 200)
    assert isinstance(chain, tuple), chain
    assert len(chain) == 200
    assert qc.check_sequence(example_system, chain) is None
    for cut in range(1, 201):
        assert qc.check_sequence(example_system, chain[:cut]) is None
    _report("chain grown to horizon 200 on the bundled example", t0, limit=10.0)


# -- 8: invariance under renaming -----------------------------------------------


def test_verdicts_invariant_under_renaming():
    t0 = time.perf_counter()
    for index in range(512):
        sys = qc.system_at(2, index)
        base = qc.classify(sys, CAPS)
        for bijection in ((0, 1), (1, 0)):
            other = qc.classify(brute_rename(sys, bijection), CAPS)
            assert qc.verdict_kind(other) == qc.verdict_kind(base), (index, bijection)
            if isinstance(base, qc.Bounded):
                assert other.max_len == base.max_len, (index, bijection)

    for n in (1, 2, 3):
        seen = set()
        for index in range(qc.total_systems(n)):
            sys = qc.system_at(n, index)
            canon = qc.canonical_form(sys)
            key = (canon.origin, canon.h_mask, canon.v_mask)
            if key in seen:
                continue
            seen.add(key)
            assert qc.canonical_form(canon) == canon
    _report("verdicts invariant under renaming, canonical form idempotent", t0)
