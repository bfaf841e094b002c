"""Search engine against brute-force oracles: max length, enumeration,
profiles, extendability, chains, witnesses, classification soundness."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadcolor as qc
from quadcolor import search
from conftest import (
    brute_levels,
    brute_max_length,
    brute_sequences,
    brute_torus_colorings,
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
    profile = qc.length_profile(s, SMALL)
    levels = brute_levels(s, SMALL.depth_cap)
    assert isinstance(profile, qc.LengthProfile)
    assert list(profile.counts) == [len(level) for level in levels]


@given(system_strategy(max_colors=3), st.integers(1, 6))
@settings(max_examples=100, deadline=None)
def test_extendable_colors_matches_brute(s, horizon):
    full = brute_sequences(s, horizon)
    prefix = (s.origin,)
    expected = {seq[1] for seq in full if len(seq) > 1 and seq[:1] == prefix}
    if horizon == 1:
        # horizon clamps to one extension step past the prefix
        expected = {seq[1] for seq in brute_sequences(s, 2)}
    assert qc.extendable_colors(s, prefix, horizon) == frozenset(expected)


def test_extendable_colors_deeper_prefix():
    s = qc.ColoringSystem.from_pairs(2, 0, [(0, 1), (1, 0)], [(0, 0), (1, 1)])
    prefix = (0, 0, 1)
    full = brute_sequences(s, 8)
    expected = {seq[3] for seq in full if seq[:3] == prefix}
    assert qc.extendable_colors(s, prefix, 8) == frozenset(expected)


def test_extendable_colors_of_the_empty_prefix():
    # the empty prefix extends only by the origin color, and does so
    # exactly when an accepted sequence of length max(horizon, 1) exists
    for n in (1, 2):
        for index in range(qc.total_systems(n)):
            s = qc.system_at(n, index)
            assert qc.extendable_colors(s, (), 0) == frozenset({s.origin})
            for horizon in range(1, 7):
                reached = qc.enumerate_sequences(s, horizon).sequences
                expected = frozenset({s.origin}) if reached else frozenset()
                assert qc.extendable_colors(s, (), horizon) == expected, (n, index, horizon)


def test_extendable_colors_rejects_bad_prefix():
    s = qc.ColoringSystem.from_pairs(2, 0, [(0, 1)], [(0, 0)])
    with pytest.raises(qc.InputError):
        qc.extendable_colors(s, (1,), 4)
    with pytest.raises(qc.InputError):
        qc.extendable_colors(s, (0, 0, 0), 2)


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
    loop; exercised across seeded systems where both are affordable."""
    rng = random.Random(11)
    for _ in range(40):
        s = random_system(rng, rng.choice((2, 3)))
        horizon = rng.randrange(2, 8)
        got = qc.build_chain(s, horizon)
        seq = (s.origin,)
        unreachable = not qc.extendable_colors(s, seq, horizon) and horizon > 1
        while len(seq) < horizon:
            colors = qc.extendable_colors(s, seq, horizon)
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
    # on the free system the sweep expands 1, 1, 2 and 4 frontier words
    # for tiles 0..3; a node cap stops it inside the first tile it cannot
    # finish, and max_seen is the longest length whose count completed
    s = qc.ColoringSystem.from_pairs(2, 0, [(0, 0), (0, 1), (1, 0), (1, 1)],
                                     [(0, 0), (0, 1), (1, 0), (1, 1)])
    for node_cap, max_seen in ((1, 1), (2, 2), (3, 2), (5, 3), (8, 4)):
        budget = qc.SearchBudget(depth_cap=40, node_cap=node_cap)
        assert qc.length_profile(s, budget) == qc.Indeterminate(max_seen=max_seen, nodes=node_cap)
    profile = qc.length_profile(s, qc.SearchBudget(depth_cap=12))
    assert profile == qc.LengthProfile(counts=tuple(2 ** (length - 1) for length in range(1, 13)))


def test_exhaustion_matches_the_length_profile_at_the_census_cap():
    # the frontier sweep shares no code with the leaves walk: exhaustion
    # is exact at L exactly when the last nonzero count is at length L
    budget = qc.SearchBudget(depth_cap=64)
    for index in range(512):
        s = qc.system_at(2, index)
        counts = qc.length_profile(s, budget).counts
        longest = max(k + 1 for k, count in enumerate(counts) if count)
        if longest < budget.depth_cap:
            expected = qc.ExactMax(longest)
        else:
            expected = qc.ReachedCap(budget.depth_cap)
        assert qc.max_accept_length(s, budget) == expected, index


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
    assert digest == "1a21d9fc4797beb19d65429eb57d09bbfc50fe51d39e428762dd63facfe25f76"


@given(system_strategy(max_colors=3))
@settings(max_examples=80, deadline=None)
def test_witness_is_first_in_period_order(s):
    found = qc.find_periodic_witness(s, qc.SearchBudget(period_cap=3))
    expected = None
    for _, p, q in sorted((p * q, p, q) for p in (1, 2, 3) for q in (1, 2, 3)):
        tori = brute_torus_colorings(s, p, q)
        if tori:
            expected = (p, q, min(tori))
            break
    if expected is None:
        assert found is None
    else:
        assert (found.p, found.q, found.rows) == expected


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
    try:
        witness = qc.find_periodic_witness(s, budget)
    except qc.BudgetExhausted:
        witness = None
    if witness is not None:
        return qc.HasColoring(witness)
    result = qc.max_accept_length(s, budget)
    if isinstance(result, qc.ExactMax):
        return qc.Bounded(result.length)
    depth = result.depth if isinstance(result, qc.ReachedCap) else result.max_seen
    return qc.Unknown(depth_reached=depth, period_cap_reached=budget.period_cap)


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


def test_classify_example_is_unknown_at_default_caps(example_system):
    verdict = qc.classify(example_system, qc.SearchBudget(depth_cap=40, period_cap=3))
    assert verdict == qc.Unknown(depth_reached=40, period_cap_reached=3)


def test_searches_are_deterministic():
    rng = random.Random(23)
    for _ in range(20):
        s = random_system(rng, 3)
        assert qc.enumerate_sequences(s, 6) == qc.enumerate_sequences(s, 6)
        assert qc.classify(s, SMALL) == qc.classify(s, SMALL)
