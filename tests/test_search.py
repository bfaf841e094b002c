"""Search engine against brute-force oracles: max length, enumeration,
profiles, extendability, chains, witnesses, classification soundness."""

import hashlib
import random
import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadcolor as qc
from quadcolor import search
from conftest import (
    brute_extendable,
    brute_levels,
    brute_max_length,
    brute_sequences,
    brute_shadows,
    brute_torus_colorings,
    class_id,
    random_system,
    system_strategy,
)

SMALL = qc.SearchBudget(depth_cap=7, period_cap=2)


def test_budget_validation():
    with pytest.raises(qc.InputError):
        qc.SearchBudget(depth_cap=0)
    with pytest.raises(qc.InputError):
        qc.SearchBudget(period_cap=0)
    with pytest.raises(qc.InputError):
        qc.SearchBudget(node_cap=0)
    # caps are ints: a float node cap would switch the budget off, a float
    # depth or period cap would break the walks that index by it
    for bad in ({"node_cap": 5.5}, {"depth_cap": 2.5}, {"period_cap": 2.0},
                {"depth_cap": True}, {"period_cap": True}, {"node_cap": True}):
        with pytest.raises(qc.InputError):
            qc.SearchBudget(**bad)
    assert qc.SearchBudget().depth_cap == 64
    assert qc.SearchBudget().period_cap == 4


@given(system_strategy(max_colors=3))
@settings(max_examples=120, deadline=None)
def test_max_length_matches_brute(s):
    result = qc.max_accept_length(s, SMALL)
    longest = brute_max_length(s, SMALL.depth_cap)
    if longest == SMALL.depth_cap:
        assert result == qc.ReachedCap(SMALL.depth_cap)
    else:
        assert result == qc.ExactMax(longest)


@given(system_strategy(max_colors=3), st.integers(1, 7))
@settings(max_examples=120, deadline=None)
def test_enumerate_matches_brute_filtration(s, length):
    got = qc.enumerate_sequences(s, length)
    assert list(got.sequences) == sorted(got.sequences)
    assert list(got.sequences) == brute_sequences(s, length)


@given(system_strategy(max_colors=3))
@settings(max_examples=100, deadline=None)
def test_length_profile_matches_brute(s):
    profile = qc.length_profile(s, SMALL.depth_cap)
    levels = brute_levels(s, SMALL.depth_cap)
    assert isinstance(profile, qc.LengthProfile)
    assert list(profile.counts) == [len(level) for level in levels]


def walk_extendable(sys, prefix, horizon):
    """The colors c whose accepted prefix + (c,) the walk extends to length
    max(horizon, len(prefix) + 1), in ascending order."""
    target = max(horizon, len(prefix) + 1)
    return [
        c for c in range(sys.n)
        if qc.check_sequence(sys, prefix + (c,)) is None
        and search._leaves(sys, target, prefix + (c,), 1)[0]
    ]


@given(system_strategy(max_colors=3), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_extendable_colors_matches_brute(s, horizon):
    # the walk below a one-color prefix, the one-color growth oracle, and
    # the filtration of the full product all name the same colors
    prefix = (s.origin,)
    # the horizon clamps to one extension step past the prefix
    full = brute_sequences(s, max(horizon, 2))
    expected = frozenset(seq[1] for seq in full)
    assert brute_extendable(s, prefix, horizon) == expected
    assert frozenset(walk_extendable(s, prefix, horizon)) == expected


def test_extendable_colors_deeper_prefix():
    s = qc.ColoringSystem.from_pairs(2, 0, [(0, 1), (1, 0)], [(0, 0), (1, 1)])
    prefix = (0, 0, 1)
    full = brute_sequences(s, 8)
    expected = frozenset(seq[3] for seq in full if seq[:3] == prefix)
    assert brute_extendable(s, prefix, 8) == expected
    assert frozenset(walk_extendable(s, prefix, 8)) == expected


@pytest.mark.parametrize("length", [0, -1, 5.0, True, "4", None])
def test_search_lengths_must_be_ints(length):
    # lengths and horizons are ints >= 1; a float, bool, string or None
    # is an input error before the walk sizes its tile table, and True is
    # not taken as 1.  A witness's diagonal count (an int >= 0), a render
    # scale (an int >= 1), the census's stop_after (an int >= 0 or None)
    # and record range ends follow the same rule, with messages that name
    # the argument.
    if length != 0:
        with pytest.raises(qc.InputError, match="diagonal count"):
            qc.PeriodicWitness(1, 1, ((0,),)).expand(length)
    with pytest.raises(qc.InputError, match="scale"):
        qc.render_triangle(qc.TriangleColoring((0,)), fmt="ppm", scale=length)
    s = qc.ColoringSystem.from_pairs(2, 0, [(0, 1), (1, 0)], [(0, 0), (1, 1)])
    with pytest.raises(qc.InputError):
        qc.build_chain(s, length)
    with pytest.raises(qc.InputError):
        qc.enumerate_sequences(s, length)
    if length not in (0, None):
        with pytest.raises(qc.InputError, match="stop_after"):
            qc.run_census(2, SMALL, stop_after=length)
        with pytest.raises(qc.InputError, match="stop|record range"):
            next(qc.census_records(2, SMALL, 0, length))
        with pytest.raises(qc.InputError, match="stop|record range"):
            qc.census_records(2, SMALL, 0, length)  # at the call, before any record
    if length != 0:
        with pytest.raises(qc.InputError, match="start|record range"):
            next(qc.census_records(2, SMALL, length, 3))
        with pytest.raises(qc.InputError, match="start|record range"):
            qc.census_records(2, SMALL, length, 3)


@given(system_strategy(max_colors=3), st.integers(1, 7))
@settings(max_examples=120, deadline=None)
def test_build_chain_is_least_reachable(s, horizon):
    full = brute_sequences(s, horizon)
    got = qc.build_chain(s, horizon)
    if not full:
        assert got == qc.Unreachable(horizon)
    else:
        assert got == min(full)
        for j in range(1, horizon + 1):
            assert qc.check_sequence(s, got[:j]) is None


def test_build_chain_agrees_with_stepwise_greedy():
    """The one-shot chain equals the literal take-the-least-extendable-color
    loop; exercised across seeded systems where both are affordable.  The
    loop grows each step by brute_extendable, which shares no code with the
    walk, and search imports no checker, so the checker that judges the
    walk's output shares none with it either."""
    assert not hasattr(search, "check_sequence")
    rng = random.Random(11)
    for _ in range(40):
        s = random_system(rng, rng.choice((2, 3)))
        horizon = rng.randrange(2, 8)
        got = qc.build_chain(s, horizon)
        seq = (s.origin,)
        unreachable = not brute_extendable(s, seq, horizon) and horizon > 1
        while len(seq) < horizon:
            colors = brute_extendable(s, seq, horizon)
            if not colors:
                unreachable = True
                break
            seq = seq + (min(colors),)
        if unreachable or (horizon > 1 and len(seq) < horizon):
            assert got == qc.Unreachable(horizon)
        elif horizon == 1:
            assert got == (s.origin,)
        else:
            assert got == seq


def test_node_budget_reports_indeterminate():
    s = qc.ColoringSystem.from_pairs(2, 0, [(0, 0), (0, 1), (1, 0), (1, 1)],
                                     [(0, 0), (0, 1), (1, 0), (1, 1)])
    result = qc.max_accept_length(s, qc.SearchBudget(depth_cap=40, node_cap=5))
    assert isinstance(result, (qc.Indeterminate, qc.ReachedCap))
    # depth 40 on the free system needs 40 placements; 5 cannot get there
    assert isinstance(result, qc.Indeterminate)
    assert result.nodes == 5
    chain = qc.build_chain(s, 40, qc.SearchBudget(depth_cap=40, node_cap=5))
    # the origin plus five placements: the deepest prefix reached
    assert chain == qc.Indeterminate(max_seen=6, nodes=5)


def test_budgeted_length_profile_counts_frontier_words():
    # on the free system, with the origin fixed, every other tile takes
    # either color; the length is a count of tiles, checked like any other
    s = qc.ColoringSystem.from_pairs(2, 0, [(0, 0), (0, 1), (1, 0), (1, 1)],
                                     [(0, 0), (0, 1), (1, 0), (1, 1)])
    for bad in (0, True, 12.0):
        with pytest.raises(qc.InputError, match="sequence length"):
            qc.length_profile(s, bad)
    profile = qc.length_profile(s, 12)
    assert profile == qc.LengthProfile(counts=tuple(2 ** (length - 1) for length in range(1, 13)))


def test_exhaustion_matches_the_length_profile_at_the_census_cap():
    # the frontier sweep shares no walk with the leaves walk, only the
    # tile table: exhaustion is exact at L exactly when the last nonzero
    # count is at length L.  Every n=2 system at the census cap, then a
    # seeded n=3 sample at 21 tiles (six full diagonals), where the n=3
    # frontier stays small; both verdict kinds occur in each.
    rng = random.Random(3)
    samples = [(qc.system_at(2, index), 64) for index in range(512)]
    samples += [(random_system(rng, 3), 21) for _ in range(600)]
    kinds = {2: set(), 3: set()}
    for s, cap in samples:
        counts = qc.length_profile(s, cap).counts
        longest = max(k + 1 for k, count in enumerate(counts) if count)
        expected = qc.ExactMax(longest) if longest < cap else qc.ReachedCap(cap)
        assert qc.max_accept_length(s, qc.SearchBudget(depth_cap=cap)) == expected, s
        kinds[s.n].add(type(expected))
    assert kinds == {2: {qc.ExactMax, qc.ReachedCap}, 3: {qc.ExactMax, qc.ReachedCap}}


def test_the_n4_champion_is_certified_twice():
    # the longest bounded n=4 system known, so mu(4) >= 40: exhaustion
    # stops at 39 tiles, the frontier sweep counts no sequence longer, and
    # the H/V swap stops at 41 tiles, on the same diagonal
    s = qc.ColoringSystem(4, 0, 0x1797, 0x7d2a)
    assert class_id(s) == "4.0.1797.7d2a"
    assert qc.max_accept_length(s, qc.SearchBudget(depth_cap=64)) == qc.ExactMax(39)
    counts = qc.length_profile(s, 45).counts
    assert max(k + 1 for k, count in enumerate(counts) if count) == 39
    swapped = qc.ColoringSystem(4, 0, 0x7d2a, 0x1797)
    assert qc.max_accept_length(swapped, qc.SearchBudget(depth_cap=64)) == qc.ExactMax(41)
    assert sum(qc.tile_at(41)) == sum(qc.tile_at(39))


def test_a_node_cap_settles_the_n4_champion_at_the_walks_node_count():
    # the backjumping walk exhausts the champion's tree in 4,485
    # placements; a cap of one fewer cuts that same walk short after it
    # has placed the longest, 39-tile prefix
    s = qc.ColoringSystem(4, 0, 0x1797, 0x7d2a)
    assert qc.max_accept_length(s, qc.SearchBudget(node_cap=4485)) == qc.ExactMax(39)
    assert qc.max_accept_length(s, qc.SearchBudget(node_cap=4484)) == qc.Indeterminate(
        max_seen=39, nodes=4484
    )


def _certified(s, result) -> bool:
    """Whether an exhaustion result holds by a certificate that shares no
    walk with the growing one: ExactMax(L) by the frontier sweep, which
    counts sequences of length L and none of length L + 1, and
    ReachedCap(cap) by the checker accepting the chain to the cap, whose
    walk has a fixed target."""
    if isinstance(result, qc.ExactMax):
        counts = qc.length_profile(s, result.length + 1).counts
        return counts[result.length - 1] > 0 and counts[result.length] == 0
    return qc.check_sequence(s, qc.build_chain(s, result.depth)) is None


def test_exhaustion_agrees_with_independent_certificates(n3_census):
    # every class of the census-n3 prefix (its first 98,303 systems) whose
    # exhaustion runs and reaches the cap: the rest are bounded, constant or
    # shadowed, and classify walks none of those to the cap
    with open(n3_census[0]) as fh:
        head = "".join(next(fh) for _ in range(98_303))
    classes = dict.fromkeys(re.findall(
        r'"canonical_id":"3\.0\.([0-9a-f]+)\.([0-9a-f]+)","verdict":"(?:has_coloring|unknown)"', head
    ))
    capped = []
    for h, v in classes:
        s = qc.ColoringSystem(3, 0, int(h, 16), int(v, 16))
        if not (s.h_mask & s.v_mask & 1 or any(search._shadows(s))):
            capped.append(s)
    assert len(capped) == 1_061
    for s in capped:
        assert qc.max_accept_length(s, qc.SearchBudget()) == qc.ReachedCap(64), s
        assert _certified(s, qc.ReachedCap(64)), s
    # seeded n=4 and n=5 samples, at a cap where the chains stay cheap (a
    # fixed-target walk does not backjump), then the mu(4) champion
    rng = random.Random(27)
    sample = [random_system(rng, 4) for _ in range(2_000)] + [random_system(rng, 5) for _ in range(400)]
    kinds = set()
    for s in sample:
        result = qc.max_accept_length(s, qc.SearchBudget(depth_cap=36))
        assert _certified(s, result), s
        kinds.add((s.n, type(result)))
    assert kinds == {(n, kind) for n in (4, 5) for kind in (qc.ExactMax, qc.ReachedCap)}
    champion = qc.ColoringSystem(4, 0, 0x1797, 0x7d2a)
    assert _certified(champion, qc.max_accept_length(champion, qc.SearchBudget()))


def test_budgeted_search_results_are_pinned():
    # every n=2 system under a ladder of node caps: exhaustion and chains
    # stop at the same node, with the same max_seen and node count, as the
    # engine these bytes were recorded from; all five result kinds occur
    results = []
    for index in range(512):
        s = qc.system_at(2, index)
        for node_cap in (1, 2, 3, 5, 8, 13, 40, None):
            budget = qc.SearchBudget(depth_cap=12, node_cap=node_cap)
            results.append(qc.max_accept_length(s, budget))
            results.append(qc.build_chain(s, 12, budget))
    kinds = {type(r) for r in results}
    assert kinds == {qc.ExactMax, qc.ReachedCap, qc.Indeterminate, qc.Unreachable, tuple}
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "cccd413ab9f7d7f6b47085519e5c2295a899ab6a61e01cf292e5ddef4eceada3"


def test_budgeted_witness_results_are_pinned():
    # every n=2 system under a ladder of period and node caps: the torus
    # search returns the same witness, or runs out at the same node, as the
    # engine these bytes were recorded from
    results = []
    for index in range(512):
        s = qc.system_at(2, index)
        for period_cap in (1, 2, 3, 4):
            for node_cap in (1, 2, 3, 5, 8, 13, 40, None):
                budget = qc.SearchBudget(period_cap=period_cap, node_cap=node_cap)
                results.append(qc.find_periodic_witness(s, budget))
    assert None in results and any(isinstance(r, qc.PeriodicWitness) for r in results)
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "46cc993428adea8c271149a49fb92c20192aa8f3cf23b1b32a7acfd121a5bcad"


def test_budgeted_results_beyond_n2_are_pinned():
    # seeded n=3 and n=4 samples under a ladder of period and node caps:
    # the torus search and classify give the same witnesses and verdicts as
    # the engine these bytes were recorded from; most n=4 masks miss the
    # per-mask caches, so this holds their miss path too
    rng = random.Random(26)
    sample = [random_system(rng, 3) for _ in range(150)]
    sample += [random_system(rng, 4) for _ in range(100)]
    results = []
    for s in sample:
        for period_cap in (1, 2, 3, 4):
            for node_cap in (1, 5, 40, None):
                budget = qc.SearchBudget(period_cap=period_cap, node_cap=node_cap)
                results.append(qc.find_periodic_witness(s, budget))
                results.append(qc.classify(s, budget))
    kinds = {type(r) for r in results}
    assert kinds == {type(None), qc.PeriodicWitness, qc.Bounded, qc.HasColoring, qc.Unknown}
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "e207e16ea36191999129a9fefe8122514190884df3ce70d3bd3a8c7f3d2073c5"


def test_walk_results_are_pinned(example_system, example_triangle):
    # the walk's modes the n=2 pin above does not reach, as the engine these
    # bytes were recorded from ran them: 13-color chains under node caps,
    # enumeration and extendability below prefixes of the bundled triangle,
    # and growing walks on n=3 systems under node caps
    example = example_system
    triangle = example_triangle.seq
    results = []
    for horizon in (20, 45, 70):
        for node_cap in (1, 5, 1000, 10**5, None):
            results.append(qc.build_chain(example, horizon, qc.SearchBudget(node_cap=node_cap)))
    results.append(qc.enumerate_sequences(example, 12))
    for cut in (1, 2, 3, 5, 9, 20, 40):
        prefix = triangle[:cut]
        for extra in (1, 4, 8, 12):
            results.append(search._leaves(example, cut + extra, prefix, None))
            results.append(search._leaves(example, cut + extra, prefix, 3, node_cap=50))
            results.append(search._leaves(example, cut + extra, prefix, 1, grow=True, node_cap=500))
        for horizon in (cut, cut + 5, cut + 30):
            results.append(walk_extendable(example, prefix, horizon))
    rng = random.Random(21)
    for _ in range(400):
        s = random_system(rng, 3)
        for node_cap in (1, 7, 40, 300, None):
            results.append(qc.max_accept_length(s, qc.SearchBudget(node_cap=node_cap)))
    kinds = {type(r) for r in results}
    assert {qc.ExactMax, qc.ReachedCap, qc.Indeterminate, tuple} <= kinds
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "e9b4f1a25c4defb64fc69b22d1809bb8d14a2f9d05b1d15571724b21bc871c71"


def _conclusive(result) -> bool:
    return not (result is None or isinstance(result, (qc.Indeterminate, qc.Unknown)))


def test_a_node_cap_cuts_the_unbudgeted_search_short():
    # every n=2 system and seeded n=3 and n=4 samples under a ladder of
    # node caps: each capped result is the unbudgeted one or inconclusive
    # (no witness, Indeterminate or Unknown), a conclusive one stays at
    # every larger cap, and the depth an inconclusive one reports never
    # falls as the cap grows
    rng = random.Random(30)
    sample = [qc.system_at(2, index) for index in range(512)]
    sample += [random_system(rng, 3) for _ in range(400)]
    sample += [random_system(rng, 4) for _ in range(200)]
    kinds = set()
    for s in sample:
        for period_cap in (2, 4):
            for run in (qc.classify, qc.max_accept_length, qc.find_periodic_witness):
                full = run(s, qc.SearchBudget(period_cap=period_cap))
                settled = False
                reached = 0
                for node_cap in (1, 6, 40, 300, 5000):
                    result = run(s, qc.SearchBudget(period_cap=period_cap, node_cap=node_cap))
                    kinds.add(type(result))
                    if _conclusive(result):
                        assert result == full, (s, run, node_cap)
                        settled = True
                        continue
                    assert not settled, (s, run, node_cap)
                    if isinstance(result, qc.Indeterminate):
                        depth = result.max_seen
                    elif isinstance(result, qc.Unknown):
                        depth = result.depth_reached
                    else:  # no witness, which reports no depth
                        continue
                    assert depth >= reached, (s, run, node_cap)
                    reached = depth
    assert kinds == {qc.Bounded, qc.HasColoring, qc.Unknown, qc.ExactMax, qc.ReachedCap,
                     qc.Indeterminate, qc.PeriodicWitness, type(None)}


def _first_torus(s, cap):
    """(p, q, rows) of the least brute-force torus in (p * q, p, q) order."""
    for _, p, q in sorted((p * q, p, q) for p in range(1, cap + 1) for q in range(1, cap + 1)):
        tori = brute_torus_colorings(s, p, q)
        if tori:
            return p, q, min(tori)
    return None


def _triple(witness):
    return witness and (witness.p, witness.q, witness.rows)


@given(system_strategy(max_colors=3))
@settings(max_examples=80, deadline=None)
def test_witness_is_first_in_period_order(s):
    assert _triple(qc.find_periodic_witness(s, qc.SearchBudget(period_cap=3))) == _first_torus(s, 3)


def _every_height(sys, firsts, cap):
    """_closing_heights without the column rule: every height of a width
    with a row starting in the origin color, and none of any other."""
    return -1 if firsts[sys.origin] else 0


def test_the_column_skip_changes_no_witness(monkeypatch):
    # the torus search skips the shapes whose column 0 cannot close; with
    # _every_height in place of the rule it tries every shape with a start
    # row, so the two must agree, and on every n=2 system at cap 3 both
    # are the first brute-force torus
    rng = random.Random(28)
    sample = [qc.system_at(2, index) for index in range(512)]
    sample += [random_system(rng, 3) for _ in range(1000)]
    sample += [random_system(rng, 4) for _ in range(1000)]
    budgets = [qc.SearchBudget(period_cap=period_cap) for period_cap in range(1, 6)]
    skipping = [[qc.find_periodic_witness(s, budget) for budget in budgets] for s in sample]
    monkeypatch.setattr(search, "_closing_heights", _every_height)
    found = 0
    for s, witnesses in zip(sample, skipping):
        for budget, witness in zip(budgets, witnesses):
            assert witness == qc.find_periodic_witness(s, budget), (s, budget)
            if s.n == 2 and budget.period_cap == 3:
                assert _triple(witness) == _first_torus(s, 3), s
            found += witness is not None
    assert 0 < found < 5 * len(sample)


def _closed_columns(s, cap):
    """(q, colors) for every closed V-walk of q <= cap cells from the origin
    color, by brute force: a column of q cells with every vertical pair in
    V, wrap included, and the set of its colors."""
    for q in range(1, cap + 1):
        for rest in product(range(s.n), repeat=q - 1):
            column = (s.origin, *rest)
            if all(map(s.v_allows, column, column[1:] + column[:1])):
                yield q, set(column)


def _closing_widths(s, cap):
    """The widths p <= cap at which some column 0 closes within cap rows,
    by brute force: a closed column whose every cell is the first cell of
    a wrap-legal width-p row."""
    closed = list(_closed_columns(s, cap))
    widths = set()
    for p in range(1, cap + 1):
        firsts = {row[0] for row in product(range(s.n), repeat=p)
                  if all(s.h_allows(row[x], row[(x + 1) % p]) for x in range(p))}
        if any(colors <= firsts for _, colors in closed):
            widths.add(p)
    return widths


def test_the_column_rule_matches_a_brute_force_count():
    # the cached column rule against the closed columns, counted by brute
    # force: every V mask, origin and start-color mask at n = 2 and 3, and
    # a seeded sample at n = 4, at caps 1 to 5; the rule reads only the
    # start colors from firsts, so any nonzero row bitset stands for a row
    rng = random.Random(31)
    cases = [(n, v_mask, origin) for n in (2, 3) for v_mask in range(1 << n * n) for origin in range(n)]
    cases += [(4, rng.getrandbits(16), rng.randrange(4)) for _ in range(300)]
    for n, v_mask, origin in cases:
        s = qc.ColoringSystem(n, origin, 0, v_mask)
        closed = list(_closed_columns(s, 5))
        starts = range(1 << n) if n < 4 else rng.sample(range(1 << n), 3)
        for through in starts:
            firsts = tuple(through >> c & 1 for c in range(n))
            inside = {c for c in range(n) if through >> c & 1}
            heights = 0
            for q, colors in closed:
                if colors <= inside:
                    heights |= 1 << q
            for cap in range(1, 6):
                expected = heights & (2 << cap) - 1
                assert search._closing_heights(s, firsts, cap) == expected, (s, through, cap)
    # one census run reads most of its column rules from the cache
    search._heights.cache_clear()
    census_records_n3 = list(qc.census_records(3, qc.SearchBudget(), 0, 8192))
    assert len(census_records_n3) == 8192
    info = search._heights.cache_info()
    assert info.hits > 2 * info.misses > 0, info


def test_the_column_skip_builds_no_row_graph_it_cannot_use(monkeypatch):
    # on systems with no torus up to the cap, every width is reached: a
    # search builds the row graph of each width where some column 0
    # closes, with or without a node cap, and no other, so it skips some
    # widths that have a row starting in the origin color
    built = []
    real = search._row_graph

    def counting(sys, p):
        built.append(p)
        return real(sys, p)

    monkeypatch.setattr(search, "_row_graph", counting)
    unbudgeted = qc.SearchBudget(period_cap=3)
    budgeted = qc.SearchBudget(period_cap=3, node_cap=10**12)
    rng = random.Random(28)
    sample = [qc.system_at(2, index) for index in range(512)]
    sample += [random_system(rng, 3) for _ in range(300)]
    skipped = 0
    for s in sample:
        built.clear()
        if qc.find_periodic_witness(s, unbudgeted) is not None:
            continue
        closing = _closing_widths(s, 3)
        assert sorted(built) == sorted(closing), s
        built.clear()
        assert qc.find_periodic_witness(s, budgeted) is None
        assert sorted(built) == sorted(closing), s
        starting = {p for p in (1, 2, 3) if search._wrap_rows(s.h_next, p)[1][0][s.origin]}
        skipped += len(starting - closing)
    assert skipped


def test_a_node_cap_keeps_the_column_skip(monkeypatch):
    # no column 0 of this n=4 system closes up to period 5, so the search
    # builds no row graph, and a cap too large to bind changes nothing
    built = []
    real = search._row_graph

    def counting(sys, p):
        built.append(p)
        return real(sys, p)

    monkeypatch.setattr(search, "_row_graph", counting)
    s = qc.ColoringSystem(4, 1, 61949, 36893)
    for node_cap in (None, 10**12):
        assert qc.find_periodic_witness(s, qc.SearchBudget(period_cap=5, node_cap=node_cap)) is None
    assert built == []


def test_a_capped_unknown_reports_the_periods_it_searched():
    # a node cap of 1 stops this system's torus search at the 2 x 1 shape,
    # whose torus a cap of 2 finds: the Unknown names period 1, the largest
    # whose shapes were searched, not the period cap
    s = qc.ColoringSystem.from_pairs(2, 0, [(0, 1), (1, 0)], [(0, 0), (1, 1)])
    assert qc.classify(s, qc.SearchBudget(node_cap=1)) == qc.Unknown(depth_reached=64, period_cap_reached=1)
    torus = qc.PeriodicWitness(p=2, q=1, rows=((0, 1),))
    assert qc.classify(s, qc.SearchBudget(node_cap=2)) == qc.HasColoring(torus)
    # on every n=2 system under a ladder of node caps, the period reported
    # is the cap when the search ran to the end, never falls as the node
    # cap grows, and no brute-force torus has both periods within it
    reports = set()
    for index in range(512):
        s = qc.system_at(2, index)
        torus_free = {}  # period -> whether no brute-force torus fits within it
        last = 0
        for node_cap in (1, 2, 3, 5, 8, 13, None):
            reached = []
            witness = qc.find_periodic_witness(s, qc.SearchBudget(period_cap=3, node_cap=node_cap), reached)
            if witness is not None:
                assert reached == [], (s, node_cap)
                break
            (period,) = reached
            assert last <= period <= 3 and (node_cap or period == 3), (s, node_cap)
            if period not in torus_free:
                torus_free[period] = _first_torus(s, period) is None
            assert torus_free[period], (s, node_cap)
            reports.add(period)
            last = period
    assert reports == {1, 2, 3}


def test_classify_shares_its_verdicts():
    # one Bounded per length and one Unknown per (depth, period cap), as
    # one HasColoring per origin color for the 1x1 torus: equal verdicts
    # without a witness are the same object
    budget = qc.SearchBudget()
    first = {}
    repeats = set()
    for index in range(512):
        verdict = qc.classify(qc.system_at(2, index), budget)
        if not isinstance(verdict, qc.HasColoring):
            if verdict in first:
                assert verdict is first[verdict]
                repeats.add(type(verdict))
            first.setdefault(verdict, verdict)
    assert repeats == {qc.Bounded, qc.Unknown}


def test_witness_for_vertical_stripes():
    s = qc.ColoringSystem.from_pairs(2, 0, [(0, 1), (1, 0)], [(0, 0), (1, 1)])
    w = qc.find_periodic_witness(s, qc.SearchBudget())
    assert (w.p, w.q, w.rows) == (2, 1, ((0, 1),))


@given(system_strategy(max_colors=3))
@settings(max_examples=80, deadline=None)
def test_classify_is_sound(s):
    budget = qc.SearchBudget(depth_cap=6, period_cap=2)
    verdict = qc.classify(s, budget)
    if isinstance(verdict, qc.Bounded):
        assert verdict.max_len == brute_max_length(s, budget.depth_cap + 1)
        assert verdict.max_len < budget.depth_cap
    elif isinstance(verdict, qc.HasColoring):
        assert qc.check_witness(s, verdict.witness) is None
    else:
        # no certificate: the tree really does reach the cap and no small torus exists
        assert brute_max_length(s, budget.depth_cap) == budget.depth_cap
        for p in (1, 2):
            for q in (1, 2):
                assert brute_torus_colorings(s, p, q) == []


def test_classify_with_starved_node_budget_still_sound():
    rng = random.Random(3)
    for _ in range(30):
        s = random_system(rng, 2)
        verdict = qc.classify(s, qc.SearchBudget(depth_cap=12, period_cap=2, node_cap=6))
        if isinstance(verdict, qc.Bounded):
            assert verdict.max_len == brute_max_length(s, 13)
        elif isinstance(verdict, qc.HasColoring):
            assert qc.check_witness(s, verdict.witness) is None


def _witness_first(s, budget):
    """classify composed the other way round: torus witness, then exhaustion."""
    reached = []
    witness = qc.find_periodic_witness(s, budget, reached)
    if witness is not None:
        return qc.HasColoring(witness)
    result = qc.max_accept_length(s, budget)
    if isinstance(result, qc.ExactMax):
        return qc.Bounded(result.length)
    depth = result.depth if isinstance(result, qc.ReachedCap) else result.max_seen
    if any(brute_shadows(s)):
        # a shadow colors the quadrant, so the uncapped walk reaches the cap
        depth = budget.depth_cap
    return qc.Unknown(depth_reached=depth, period_cap_reached=reached[0])


@pytest.mark.parametrize(
    "budget",
    [
        qc.SearchBudget(depth_cap=6, period_cap=2),
        qc.SearchBudget(depth_cap=12, period_cap=3),
        qc.SearchBudget(depth_cap=12, period_cap=2, node_cap=6),
        qc.SearchBudget(depth_cap=12, period_cap=2, node_cap=1),
    ],
    ids=["6/2", "12/3", "12/2 node_cap=6", "12/2 node_cap=1"],
)
def test_exhausting_first_matches_witness_first(budget):
    # classify exhausts the tree before it looks for a witness; a witness
    # rules out an exhausted tree and the two node budgets are separate,
    # so the order cannot change a verdict
    rng = random.Random(41)
    kinds = set()
    for _ in range(60):
        s = random_system(rng, rng.randrange(1, 4))
        verdict = qc.classify(s, budget)
        assert verdict == _witness_first(s, budget)
        kinds.add(qc.verdict_kind(verdict))
    assert kinds == {"bounded", "has_coloring", "unknown"}


@pytest.mark.parametrize("node_cap", [1, 6, None])
def test_constant_coloring_is_settled_without_search(monkeypatch, node_cap):
    # an origin color with an H and a V self-loop colors the quadrant
    # constantly; classify returns the witness search's own first answer,
    # the 1x1 torus, without exhausting the sequence tree
    budget = qc.SearchBudget(depth_cap=12, period_cap=3, node_cap=node_cap)
    rng = random.Random(43)
    systems = []
    for _ in range(60):
        s = random_system(rng, rng.randrange(1, 4))
        loop = 1 << (s.origin * s.n + s.origin)
        systems.append(qc.ColoringSystem(s.n, s.origin, s.h_mask | loop, s.v_mask | loop))
    expected = [qc.HasColoring(qc.find_periodic_witness(s, budget)) for s in systems]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return qc.max_accept_length(*args, **kwargs)

    monkeypatch.setattr(search, "max_accept_length", counting)
    assert [qc.classify(s, budget) for s in systems] == expected
    assert calls == []


def test_a_shadow_means_exhaustion_reaches_the_cap():
    # a 1-D shadow colors the quadrant, so unbudgeted exhaustion reaches
    # the cap on every system that has one; read the other way, no system
    # that exhaustion proves bounded has a shadow
    budget = qc.SearchBudget()
    rng = random.Random(13)
    systems = [qc.system_at(2, index) for index in range(512)]
    systems += [qc.system_at(3, rng.randrange(qc.total_systems(3))) for _ in range(2000)]
    shadowed = bounded = 0
    for s in systems:
        result = qc.max_accept_length(s, budget)
        if any(search._shadows(s)):
            shadowed += 1
            assert result == qc.ReachedCap(budget.depth_cap), s
        elif isinstance(result, qc.ExactMax):
            bounded += 1
    assert shadowed > 500 and bounded > 500


def test_shadows_match_the_brute_oracle():
    # brute_shadows builds each kind's graph pair by pair and walks it;
    # _shadows reads each kind's answer off the per-mask caches, which the
    # n=4 sample mostly misses
    rng = random.Random(24)
    systems = [qc.system_at(2, index) for index in range(qc.total_systems(2))]
    systems += [random_system(rng, 3) for _ in range(2000)]
    systems += [random_system(rng, 4) for _ in range(1000)]
    found = {3: [0] * 4, 4: [0] * 4}
    for s in systems:
        kinds = brute_shadows(s)
        assert list(search._shadows(s)) == kinds, s
        if s.n > 2:
            found[s.n] = [f + k for f, k in zip(found[s.n], kinds)]
    assert min(found[3] + found[4]) > 0, found  # every kind is exercised
    # an origin with no H or no V successor is settled before any table is
    # derived: at n >= 4 most masks miss the cache, and a census run of V
    # masks under such an H would pay a transpose per class
    qc.systems._relation.cache_clear()
    search._walkers.cache_clear()
    for _ in range(50):
        s = random_system(rng, 4)
        s = qc.ColoringSystem(4, s.origin, s.h_mask & ~(15 << 4 * s.origin), s.v_mask)
        assert list(search._shadows(s)) == brute_shadows(s) == [False] * 4, s
    assert qc.systems._relation.cache_info().currsize == 0
    assert search._walkers.cache_info().currsize == 0


def test_walk_tables_match_pairs():
    # every mask at n = 1..3 and a seeded sample at n = 5, against the
    # pair-by-pair definitions: the successor masks with the wall color's
    # (every color) appended, and the colors that have a successor
    rng = random.Random(26)
    masks = [(n, mask) for n in (1, 2, 3) for mask in range(1 << n * n)]
    masks += [(5, rng.getrandbits(25)) for _ in range(200)]
    for n, mask in masks:
        succ, live = search._walled(n, mask)
        rows = [sum(1 << d for d in range(n) if mask >> (c * n + d) & 1) for c in range(n)]
        assert succ == (*rows, (1 << n) - 1), (n, mask)
        assert live == sum(1 << c for c in range(n) if rows[c]), (n, mask)
    # one table per mask, read by every walk on a system with the mask
    search._walled.cache_clear()
    qc.max_accept_length(qc.ColoringSystem(3, 0, 0x11C, 0x152), qc.SearchBudget())
    qc.max_accept_length(qc.ColoringSystem(3, 1, 0x152, 0x11C), qc.SearchBudget())
    info = search._walled.cache_info()
    assert (info.misses, info.hits) == (2, 2), info


# one system per shadow kind that no other kind settles
SHADOW_SYSTEMS = {
    "x": (qc.ColoringSystem.from_pairs(2, 0, [(0, 1), (1, 0)], [(0, 0), (1, 1)]),
          [True, False, False, False]),
    "y": (qc.ColoringSystem.from_pairs(2, 0, [(0, 0), (1, 1)], [(0, 1), (1, 0)]),
          [False, True, False, False]),
    "x+y": (qc.ColoringSystem.from_pairs(3, 0, [(0, 1), (1, 2), (2, 0)], [(0, 1), (1, 2), (2, 0)]),
            [False, False, True, False]),
    # the shear class: its only coloring is 2, 0 or 1 by the sign of x - y
    "x-y": (qc.ColoringSystem(3, 0, 0x11C, 0x152), [False, False, False, True]),
}


@pytest.mark.parametrize("kind", list(SHADOW_SYSTEMS))
def test_each_shadow_kind_settles_its_own_system(kind):
    s, kinds = SHADOW_SYSTEMS[kind]
    assert list(search._shadows(s)) == kinds
    assert qc.max_accept_length(s, qc.SearchBudget()) == qc.ReachedCap(64)


def test_the_shear_class_stays_unknown():
    s = SHADOW_SYSTEMS["x-y"][0]
    assert class_id(s) == "3.0.11c.152"
    assert qc.classify(s, qc.SearchBudget()) == qc.Unknown(depth_reached=64, period_cap_reached=4)


@pytest.mark.parametrize("node_cap", [None, 6])
def test_a_shadow_skips_exhaustion_under_any_budget(monkeypatch, node_cap):
    # a shadow stands in for a dive to the cap, which an uncapped walk
    # makes: a node cap cuts short only the searches classify runs
    budget = qc.SearchBudget(depth_cap=12, period_cap=3, node_cap=node_cap)
    systems = []
    for index in range(512):
        s = qc.system_at(2, index)
        o = s.origin
        if any(search._shadows(s)) and not (s.h_allows(o, o) and s.v_allows(o, o)):
            systems.append(s)
    assert systems
    expected = [_witness_first(s, budget) for s in systems]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return qc.max_accept_length(*args, **kwargs)

    monkeypatch.setattr(search, "max_accept_length", counting)
    assert [qc.classify(s, budget) for s in systems] == expected
    assert calls == []


def _row_graph_by_brute_force(s, p):
    rows = [row for row in product(range(s.n), repeat=p)
            if all(s.h_allows(row[x], row[(x + 1) % p]) for x in range(p))]
    succ = [
        sum(1 << j for j, top in enumerate(rows) if all(map(s.v_allows, row, top)))
        for row in rows
    ]
    starts = sum(1 << j for j, row in enumerate(rows) if row[0] == s.origin)
    return tuple(rows), succ, starts


def test_row_graph_matches_a_brute_force_build():
    # the H half of the row graph and its memo of V unions are cached by
    # (H, p): every H at n <= 3 and width <= 4, and a seeded n=4 sample at
    # width <= 3, each under six V masks and origins, gives the graph built
    # by brute force, so later systems read unions that earlier ones memoized
    rng = random.Random(19)
    cases = [(n, h_mask, range(1, 5)) for n in (2, 3) for h_mask in range(1 << n * n)]
    cases += [(4, rng.randrange(1 << 16), range(1, 4)) for _ in range(40)]
    for n, h_mask, widths in cases:
        for p in widths:
            hits = search._wrap_rows.cache_info().hits
            for i in range(6):
                s = qc.ColoringSystem(n, i % n, h_mask, rng.randrange(1 << n * n))
                assert search._row_graph(s, p) == _row_graph_by_brute_force(s, p), (s, p)
            assert search._wrap_rows.cache_info().hits >= hits + 5
            rows, _, unions = search._wrap_rows(s.h_next, p)
            for x, memo in enumerate(unions):
                for allowed, union in memo.items():
                    assert union == sum(1 << j for j, row in enumerate(rows) if allowed >> row[x] & 1)
    # the torus search's period order, read from its cache
    for cap in range(1, 6):
        periods = sorted((p * q, p, q) for p in range(1, cap + 1) for q in range(1, cap + 1))
        assert search._periods(cap) == tuple(periods)


def test_classify_example_is_unknown_at_default_caps(example_system):
    verdict = qc.classify(example_system, qc.SearchBudget(depth_cap=40, period_cap=3))
    assert verdict == qc.Unknown(depth_reached=40, period_cap_reached=3)


def test_searches_are_deterministic():
    rng = random.Random(23)
    for _ in range(20):
        s = random_system(rng, 3)
        assert qc.enumerate_sequences(s, 6) == qc.enumerate_sequences(s, 6)
        assert qc.classify(s, SMALL) == qc.classify(s, SMALL)
