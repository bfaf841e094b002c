"""Backtracking search over the acceptable-coloring space.

All searches walk sequences in diagonal order, extending one tile at a
time.  The tile at index k only constrains against its left and below
neighbors, whose indices are k-s-1 and k-s for s = x+y, so feasibility of
an extension is O(1) given the prefix.  Colors are always tried in
ascending numeric order, which makes every result deterministic:
enumerations come out lexicographic and first-found witnesses are
reproducible.

Chains, enumeration, extendability and exhaustion all call one function,
_leaves, a walk over the tree of accepted sequences with one of two prune
horizons: a fixed target length, or (exhaustion) one past the longest
length seen so far, which grows as the walk finds longer prefixes.  It
holds no state between calls.  Given a node cap, it returns None for its
leaves when the cap runs out, and the caller reports Indeterminate.  The
walk prunes colors whose H- or V-successor set is empty once the neighbor
tile they doom falls inside the horizon.  This never changes a result (the
tests compare against brute-force filtration) but lets bounded systems die
fast.  The length profile does not walk the tree: it sweeps frontier words
level by level, merging prefixes that end in the same word and counting
them together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .checker import check_sequence
from .diagonal import tile_at
from .systems import (
    Bounded,
    ColoringSystem,
    HasColoring,
    InputError,
    PeriodicWitness,
    Unknown,
    Verdict,
)


class BudgetExhausted(Exception):
    """Raised when the periodic-witness search runs out of its node budget."""

    def __init__(self, nodes: int):
        super().__init__(f"search node budget exhausted after {nodes} nodes")
        self.nodes = nodes


def _is_count(value) -> bool:
    """An int >= 1; bools are not counts."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class SearchBudget:
    """Caps on how far searches go.  node_cap=None means unbounded."""

    depth_cap: int = 64
    period_cap: int = 4
    node_cap: Optional[int] = None

    def __post_init__(self):
        if not (_is_count(self.depth_cap) and _is_count(self.period_cap)):
            raise InputError(f"budget caps must be ints >= 1, got {self}")
        if self.node_cap is not None and not _is_count(self.node_cap):
            raise InputError(f"node cap must be an int >= 1 or None, got {self.node_cap!r}")


@dataclass(frozen=True)
class ExactMax:
    """Some acceptable sequence of this length exists and none longer."""

    length: int


@dataclass(frozen=True)
class ReachedCap:
    """An acceptable sequence of length depth_cap exists; no upper claim."""

    depth: int


@dataclass(frozen=True)
class Indeterminate:
    """Node budget ran out before the search could conclude anything."""

    max_seen: int
    nodes: int


@dataclass(frozen=True)
class Unreachable:
    """No acceptable sequence of the requested horizon length exists."""

    horizon: int


@dataclass(frozen=True)
class Enumeration:
    sequences: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class LengthProfile:
    """counts[L] = number of acceptable sequences of length L+1."""

    counts: tuple[int, ...]


# _GEOMETRY[0][k], _GEOMETRY[1][k]: column and anti-diagonal of tile index k,
# shared by every search and read off diagonal.tile_at.  It grows by
# rebinding a longer table, never in place, so a search in another thread
# never sees a half-grown one.
_GEOMETRY: tuple[list, list] = ([0], [0])


def _geometry(upto: int) -> tuple[list, list]:
    """The shared (columns, anti-diagonals) table, at least upto long."""
    global _GEOMETRY
    xs, ss = _GEOMETRY
    if len(xs) < upto:
        tiles = [tile_at(k) for k in range(max(upto, 2 * len(xs)))]
        xs, ss = [x for x, _ in tiles], [x + y for x, y in tiles]
        _GEOMETRY = (xs, ss)
    return xs, ss


def _leaves(
    sys: ColoringSystem,
    target: int,
    prefix: Sequence[int],
    want: Optional[int],
    grow: bool = False,
    node_cap: Optional[int] = None,
) -> tuple[Optional[list], int]:
    """The sequence walk: (leaves, longest).

    leaves holds the first ``want`` acceptable length-``target``
    extensions of the (already accepted) prefix in lexicographic order, or
    all of them when want is None.  It is None when the walk places
    node_cap colors and needs another; the walk then stops at once.
    longest is the length of the longest prefix placed, tracked by a
    growing or budgeted walk (a fixed, unbudgeted one reports len(prefix)).

    Colors whose H- or V-successor set is empty are pruned once the
    neighbor tile they doom has an index at most ``edge``: target - 1,
    the index of a leaf, or with ``grow`` the length of the longest
    prefix placed so far, the first index no placed prefix reaches.
    So a growing walk exhausts the tree below the target, pruning only
    what cannot beat its longest prefix, and longest ends as that
    prefix's length.  This is the hot loop of the whole package, so
    candidate masks are computed inline on locals.
    """
    k = len(prefix)
    if k >= target:
        return [tuple(prefix)], k
    n = sys.n
    h_next = [sys.h_successors(c) for c in range(n)]
    v_next = [sys.v_successors(c) for c in range(n)]
    live_h = 0
    live_v = 0
    for c in range(n):
        if h_next[c]:
            live_h |= 1 << c
        if v_next[c]:
            live_v |= 1 << c
    xs, ss = _geometry(target)
    seq = list(prefix)
    nodes_left = node_cap
    deepest = k
    last = target - 1
    edge = k if grow else last
    out: list = []
    stack = []
    x = xs[k]
    s = ss[k]
    if not k:
        cand = 1 << sys.origin
    elif x:
        cand = h_next[seq[k - s - 1]]
        if x < s:  # y = s - x > 0
            cand &= v_next[seq[k - s]]
    else:
        cand = v_next[seq[k - s]]
    if cand:
        # right neighbor of tile k sits at index k+s+2, upper at k+s+1;
        # a dead color placed at k dooms that index if it is <= edge
        if k + s + 2 <= edge:
            cand &= live_h
        if k + s + 1 <= edge:
            cand &= live_v
    while True:
        if cand:
            low = cand & -cand
            cand ^= low
            if nodes_left is not None:
                if nodes_left == 0:
                    return None, deepest
                nodes_left -= 1
                if k >= deepest:
                    deepest = k + 1
            if k >= edge:
                if k == last:
                    out.append(tuple(seq) + (low.bit_length() - 1,))
                    if len(out) == want:
                        return out, deepest
                    continue
                # only a growing walk gets here: a new longest prefix
                edge = deepest = k + 1
            seq.append(low.bit_length() - 1)
            stack.append(cand)
            k += 1
            x = xs[k]
            s = ss[k]
            if x:
                cand = h_next[seq[k - s - 1]]
                if x < s:
                    cand &= v_next[seq[k - s]]
            else:
                cand = v_next[seq[k - s]]
            if cand:
                if k + s + 2 <= edge:
                    cand &= live_h
                if k + s + 1 <= edge:
                    cand &= live_v
        else:
            if not stack:
                return out, deepest
            cand = stack.pop()
            seq.pop()
            k -= 1


def max_accept_length(
    sys: ColoringSystem, budget: SearchBudget
) -> Union[ExactMax, ReachedCap, Indeterminate]:
    """Longest acceptable sequence length, up to the depth cap.

    ExactMax(L) is a proof: the search tree was fully exhausted, so no
    sequence of length L+1 exists.  ReachedCap only certifies existence at
    the cap.  Indeterminate reports an exhausted node budget.  One growing
    leaf walk decides all three: it looks for a single sequence of the cap
    length, pruning against the longest prefix placed so far.
    """
    reached, longest = _leaves(sys, budget.depth_cap, (), 1, grow=True, node_cap=budget.node_cap)
    if reached is None:
        return Indeterminate(max_seen=longest, nodes=budget.node_cap)
    if reached:
        return ReachedCap(budget.depth_cap)
    return ExactMax(longest)


def enumerate_sequences(sys: ColoringSystem, length: int) -> Enumeration:
    """All acceptable sequences of exactly ``length``, in lexicographic
    color order."""
    if length < 1:
        raise InputError(f"sequence length must be >= 1, got {length}")
    return Enumeration(sequences=tuple(_leaves(sys, length, (), None)[0]))


def length_profile(
    sys: ColoringSystem, budget: SearchBudget
) -> Union[LengthProfile, Indeterminate]:
    """Exact per-length counts up to the depth cap, from one sweep over
    frontier words.

    Before tile k = (x, y) with s = x + y is placed, its frontier word
    holds the colors of tiles k-s-1..k-1, or k-s..k-1 when x == 0: exactly
    the placed tiles whose right or upper neighbor is still unplaced, so
    the word alone decides every extension.  Each level maps a word to the
    number of accepted prefixes ending in it, and counts[k] is the sum of
    those numbers once tile k is placed.

    node_cap counts frontier words expanded.  When it runs out, the result
    is Indeterminate, with max_seen the longest length whose count
    completed.
    """
    n = sys.n
    h_next = [sys.h_successors(c) for c in range(n)]
    v_next = [sys.v_successors(c) for c in range(n)]
    full = (1 << n) - 1
    nodes_left = budget.node_cap
    counts = [0] * budget.depth_cap
    frontier = {(): 1}
    for k in range(budget.depth_cap):
        x, y = tile_at(k)
        grown: dict = {}
        for word, mult in frontier.items():
            if nodes_left is not None:
                if nodes_left == 0:
                    return Indeterminate(max_seen=k, nodes=budget.node_cap)
                nodes_left -= 1
            cand = full if k else 1 << sys.origin
            if x:
                cand &= h_next[word[0]]
            if y:
                cand &= v_next[word[1] if x else word[0]]
            kept = word[1:] if x else word
            while cand:
                low = cand & -cand
                cand ^= low
                nxt = kept + (low.bit_length() - 1,)
                grown[nxt] = grown.get(nxt, 0) + mult
        counts[k] = sum(grown.values())
        frontier = grown
    return LengthProfile(counts=tuple(counts))


def extendable_colors(
    sys: ColoringSystem,
    prefix: Sequence[int],
    horizon: int,
) -> frozenset:
    """Colors c such that prefix + (c,) is accepted and still extends to an
    acceptable sequence of length ``horizon``.

    The horizon is clamped to at least one extension step, so a horizon
    equal to len(prefix) asks which single extensions stay acceptable.
    The empty prefix is allowed: its answer is {origin} or nothing.  An
    empty result proves the prefix cannot reach the horizon.
    """
    prefix = tuple(prefix)
    violation = check_sequence(sys, prefix) if prefix else None
    if violation is not None:
        raise InputError(f"prefix is not accepted: {violation.message()}")
    if horizon < len(prefix):
        raise InputError(f"horizon {horizon} shorter than the prefix ({len(prefix)})")
    target = max(horizon, len(prefix) + 1)
    out = set()
    for c in range(sys.n):
        grown = prefix + (c,)
        if check_sequence(sys, grown) is None and _leaves(sys, target, grown, 1)[0]:
            out.add(c)
    return frozenset(out)


def build_chain(
    sys: ColoringSystem,
    horizon: int,
    budget: Optional[SearchBudget] = None,
) -> Union[tuple, Unreachable, Indeterminate]:
    """Grow the chain (a) <= (a, c1) <= ... out to ``horizon`` elements by
    always taking the least color that still reaches the horizon.

    Taking the least viable color at every step yields exactly the
    lexicographically least acceptable sequence of the horizon length, so
    one first-leaf search computes the whole chain (the per-step variant
    re-proves viability of each prefix from scratch and is quadratically
    slower; the tests check the two agree).

    Returns Unreachable when no acceptable sequence of that length exists,
    Indeterminate when the node budget runs out first.
    """
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    node_cap = budget.node_cap if budget is not None else None
    found, longest = _leaves(sys, horizon, (sys.origin,), 1, node_cap=node_cap)
    if found is None:
        return Indeterminate(max_seen=longest, nodes=node_cap)
    if not found:
        return Unreachable(horizon)
    return found[0]


def _row_graph(sys: ColoringSystem, p: int) -> tuple[list, list, int]:
    """The width-p row graph, as (rows, succ, starts).

    rows: every length-p row legal on a width-p cylinder (consecutive pairs
    and the wrap pair (row[-1], row[0]) in H), lexicographically sorted.
    succ[i]: the bitset of row indices j such that rows[j] may sit on top
    of rows[i], i.e. every column pair (rows[i][x], rows[j][x]) is in V.
    starts: the bitset of the rows whose first cell has the origin color.
    """
    n = sys.n
    h_next = [sys.h_successors(c) for c in range(n)]
    rows = []
    for first in range(n):
        # grow rows left to right; ascending extension keeps the list sorted
        partial = [(first,)]
        for _ in range(p - 1):
            grown = []
            for row in partial:
                cand = h_next[row[-1]]
                while cand:
                    low = cand & -cand
                    cand ^= low
                    grown.append(row + (low.bit_length() - 1,))
            partial = grown
        for row in partial:
            if sys.h_allows(row[-1], row[0]):
                rows.append(row)
    # with_color[x][c]: the rows with color c at position x
    with_color = [[0] * n for _ in range(p)]
    for j, row in enumerate(rows):
        for x, c in enumerate(row):
            with_color[x][c] |= 1 << j
    # above[x][c]: the rows whose color at position x may sit on top of c
    above = []
    for x in range(p):
        masks = []
        for c in range(n):
            allowed = sys.v_successors(c)
            acc = 0
            while allowed:
                low = allowed & -allowed
                allowed ^= low
                acc |= with_color[x][low.bit_length() - 1]
            masks.append(acc)
        above.append(masks)
    succ = []
    for row in rows:
        acc = (1 << len(rows)) - 1
        for x, c in enumerate(row):
            acc &= above[x][c]
        succ.append(acc)
    return rows, succ, with_color[0][sys.origin]


def find_periodic_witness(
    sys: ColoringSystem, budget: SearchBudget
) -> Optional[PeriodicWitness]:
    """Search torus colorings over all periods up to the cap, smallest area
    first (ties by p, then q).  Cell (0, 0) is pinned to the origin color.
    Returns the first witness found, or None; raises BudgetExhausted when
    the node cap runs out first (each row placed costs p nodes).

    Rows are the search unit: a p x q torus coloring is a closed walk of
    length q in the row graph, whose nodes are the horizontally wrap-legal
    rows and whose edges are vertical compatibility.  The graph is built
    once per width p, with each row's successors as a bitset of row
    indices.  Rows are sorted, so walking successors lowest bit first
    visits complete colorings in the same order as a cell-by-cell search:
    the first witness is the lexicographically least one, but failed
    branches die a whole row at a time.
    """
    node_cap = budget.node_cap
    nodes_left = node_cap
    graphs: dict = {}
    periods = sorted(
        (p * q, p, q)
        for p in range(1, budget.period_cap + 1)
        for q in range(1, budget.period_cap + 1)
    )
    for _, p, q in periods:
        if p not in graphs:
            graphs[p] = _row_graph(sys, p)
        rows, succ, starts = graphs[p]
        # DFS over walks of q rows: stack[i] holds the rows still to try as
        # walk[i], so len(stack) == len(walk) + 1; a walk of q rows is a
        # witness when its last row's successors include its first row
        walk: list = []
        stack = [starts]
        while stack:
            cand = stack[-1]
            if not cand:
                stack.pop()
                if walk:
                    walk.pop()
                continue
            low = cand & -cand
            stack[-1] = cand ^ low
            if nodes_left is not None:
                if nodes_left < p:
                    raise BudgetExhausted(node_cap - nodes_left)
                nodes_left -= p
            j = low.bit_length() - 1
            if len(walk) + 1 < q:
                walk.append(j)
                stack.append(succ[j])
            elif succ[j] >> (walk[0] if walk else j) & 1:
                walk.append(j)
                return PeriodicWitness(p=p, q=q, rows=tuple(rows[i] for i in walk))
    return None


def classify(sys: ColoringSystem, budget: SearchBudget) -> Verdict:
    """Full verdict for one system, in three steps.

    1. An origin color with an H and a V self-loop colors the quadrant
       constantly, and the 1x1 torus is returned without search.
    2. The sequence tree is exhausted: ExactMax proves the system Bounded.
    3. Only when exhaustion reached the depth cap, or ran out of nodes, is
       a torus witness searched for.

    No order of these steps changes a verdict.  A witness colors the whole
    quadrant, so it cannot coexist with an exhausted tree, and the two
    searches spend separate node budgets.  So steps 2 and 3 give the same
    verdict as trying witnesses first, and for a system that step 1 settles
    they return its 1x1 torus: it is the first period find_periodic_witness
    tries, at a cost of one node, and node_cap is always >= 1.
    """
    o = sys.origin
    if sys.h_allows(o, o) and sys.v_allows(o, o):
        return HasColoring(PeriodicWitness(p=1, q=1, rows=((o,),)))
    result = max_accept_length(sys, budget)
    if isinstance(result, ExactMax):
        return Bounded(result.length)
    try:
        witness = find_periodic_witness(sys, budget)
    except BudgetExhausted:
        witness = None
    if witness is not None:
        return HasColoring(witness)
    depth = result.depth if isinstance(result, ReachedCap) else result.max_seen
    return Unknown(depth_reached=depth, period_cap_reached=budget.period_cap)
