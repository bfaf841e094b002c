"""Backtracking search over the acceptable-coloring space.

All searches walk sequences in diagonal order, extending one tile at a
time.  The tile at index k only constrains against its left and below
neighbors, whose indices are k-s-1 and k-s for s = x+y, so feasibility of
an extension is O(1) given the prefix.  Colors are always tried in
ascending numeric order, which makes every result deterministic:
enumerations come out lexicographic and first-found witnesses are
reproducible.

The leaf walk and the exhaustion prune colors whose H- or V-successor set
is empty once the neighbor tile they doom falls inside the target length
(for exhaustion, the longest length seen so far).  This never changes a
result (the tests compare against brute-force filtration) but lets bounded
systems die fast.  The length profile does not prune, since pruning would
drop short sequences from its counts.
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
    require_valid,
)


class BudgetExhausted(Exception):
    """Raised when a search runs out of its node budget."""

    def __init__(self, nodes: int):
        super().__init__(f"search node budget exhausted after {nodes} nodes")
        self.nodes = nodes


@dataclass(frozen=True)
class SearchBudget:
    """Caps on how far searches go.  node_cap=None means unbounded."""

    depth_cap: int = 64
    period_cap: int = 4
    node_cap: Optional[int] = None

    def __post_init__(self):
        if self.depth_cap < 1 or self.period_cap < 1:
            raise InputError(f"budget caps must be >= 1, got {self}")
        if self.node_cap is not None and self.node_cap < 1:
            raise InputError(f"node cap must be >= 1 or None, got {self.node_cap}")


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
    truncated: bool


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


class _Search:
    """One search session over a fixed system: precomputed successor masks
    and a node budget shared by all walks."""

    def __init__(self, sys: ColoringSystem, node_cap: Optional[int] = None):
        n = sys.n
        self.full = (1 << n) - 1
        self.origin_bit = 1 << sys.origin
        self.h_next = [sys.h_successors(c) for c in range(n)]
        self.v_next = [sys.v_successors(c) for c in range(n)]
        live_h = 0
        live_v = 0
        for c in range(n):
            if self.h_next[c]:
                live_h |= 1 << c
            if self.v_next[c]:
                live_v |= 1 << c
        self.live_h = live_h
        self.live_v = live_v
        self.nodes_left = node_cap
        self.nodes_spent = 0
        self.max_seen = 0  # longest sequence placed by a budgeted leaves walk

    def _cands(self, k: int, seq: Sequence[int]) -> int:
        """Colors legal at index k against the already-placed prefix."""
        if k == 0:
            return self.origin_bit
        xs, ss = _geometry(k + 1)
        x = xs[k]
        s = ss[k]
        m = self.full
        if x:
            m &= self.h_next[seq[k - s - 1]]
        if x < s:  # y = s - x > 0
            m &= self.v_next[seq[k - s]]
        return m

    def leaves(self, target: int, prefix: Sequence[int], want: Optional[int]) -> list:
        """The first ``want`` acceptable length-``target`` extensions of the
        (already accepted) prefix in lexicographic order, or all of them
        when want is None.

        Colors whose H- or V-successor set is empty are pruned once the
        neighbor tile they doom falls inside the target.  This is the hot
        loop of the whole package, so candidate masks are computed inline
        on locals.
        """
        k = len(prefix)
        if k >= target:
            return [tuple(prefix)]
        xs, ss = _geometry(target)
        seq = list(prefix)
        h_next, v_next = self.h_next, self.v_next
        live_h, live_v = self.live_h, self.live_v
        nodes_left = self.nodes_left
        nodes = 0
        deepest = k
        last = target - 1
        out: list = []
        stack = []
        cand = self._cands(k, seq)
        if cand:
            # right neighbor of tile k sits at index k+s+2, upper at k+s+1;
            # a dead color placed at k dooms that index if it is < target
            s = ss[k]
            if k + s + 2 < target:
                cand &= live_h
            if k + s + 1 < target:
                cand &= live_v
        try:
            while True:
                if cand:
                    low = cand & -cand
                    cand ^= low
                    if nodes_left is not None:
                        if nodes_left == 0:
                            raise BudgetExhausted(self.nodes_spent + nodes)
                        nodes_left -= 1
                        if k >= deepest:
                            deepest = k + 1
                    nodes += 1
                    if k == last:
                        out.append(tuple(seq) + (low.bit_length() - 1,))
                        if len(out) == want:
                            return out
                        continue
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
                        if k + s + 2 < target:
                            cand &= live_h
                        if k + s + 1 < target:
                            cand &= live_v
                else:
                    if not stack:
                        return out
                    cand = stack.pop()
                    seq.pop()
                    k -= 1
        finally:
            self.nodes_spent += nodes
            self.nodes_left = nodes_left
            self.max_seen = max(self.max_seen, deepest)

    def exhaust(self, cap: int) -> tuple[int, bool, bool]:
        """Explore the whole tree up to length cap.

        Returns (longest length seen, reached cap, fully exhausted).  Stops
        early the moment length cap is reached.  On budget exhaustion
        returns with fully_exhausted=False instead of raising.  Inlined on
        locals like leaves; colors are pruned against the longest length
        seen so far plus one.
        """
        xs, ss = _geometry(cap)
        h_next, v_next = self.h_next, self.v_next
        live_h, live_v = self.live_h, self.live_v
        nodes_left = self.nodes_left
        nodes = 0
        seq: list = []
        stack: list = []
        k = 0
        best = 0
        cand = self.origin_bit
        try:
            while True:
                if cand:
                    low = cand & -cand
                    cand ^= low
                    if nodes_left is not None:
                        if nodes_left == 0:
                            return best, False, False
                        nodes_left -= 1
                    nodes += 1
                    seq.append(low.bit_length() - 1)
                    stack.append(cand)
                    k += 1
                    if k > best:
                        best = k
                        if best == cap:
                            return best, True, True
                    x = xs[k]
                    s = ss[k]
                    if x:
                        cand = h_next[seq[k - s - 1]]
                        if x < s:
                            cand &= v_next[seq[k - s]]
                    else:
                        cand = v_next[seq[k - s]]
                    if cand:
                        if k + s + 2 <= best:
                            cand &= live_h
                        if k + s + 1 <= best:
                            cand &= live_v
                else:
                    if not stack:
                        return best, False, True
                    cand = stack.pop()
                    seq.pop()
                    k -= 1
        finally:
            self.nodes_spent += nodes
            self.nodes_left = nodes_left

    def profile(self, cap: int) -> tuple[list, bool]:
        """counts[k] = number of acceptable sequences of length k+1, k < cap.
        Unpruned: pruning would drop short sequences from the counts.
        Returns (counts, complete); counts are partial when incomplete."""
        counts = [0] * cap
        nodes_left = self.nodes_left
        nodes = 0
        seq: list = []
        stack: list = []
        k = 0
        cand = self._cands(0, seq)
        try:
            while True:
                if cand:
                    low = cand & -cand
                    cand ^= low
                    if nodes_left is not None:
                        if nodes_left == 0:
                            return counts, False
                        nodes_left -= 1
                    nodes += 1
                    counts[k] += 1
                    if k + 1 == cap:
                        continue
                    seq.append(low.bit_length() - 1)
                    stack.append(cand)
                    k += 1
                    cand = self._cands(k, seq)
                else:
                    if not stack:
                        return counts, True
                    cand = stack.pop()
                    seq.pop()
                    k -= 1
        finally:
            self.nodes_spent += nodes
            self.nodes_left = nodes_left


def max_accept_length(
    sys: ColoringSystem, budget: SearchBudget
) -> Union[ExactMax, ReachedCap, Indeterminate]:
    """Longest acceptable sequence length, up to the depth cap.

    ExactMax(L) is a proof: the search tree was fully exhausted, so no
    sequence of length L+1 exists.  ReachedCap only certifies existence at
    the cap.  Indeterminate reports an exhausted node budget.
    """
    require_valid(sys)
    search = _Search(sys, node_cap=budget.node_cap)
    best, reached_cap, complete = search.exhaust(budget.depth_cap)
    if reached_cap:
        return ReachedCap(budget.depth_cap)
    if complete:
        return ExactMax(best)
    return Indeterminate(max_seen=best, nodes=search.nodes_spent)


def enumerate_sequences(
    sys: ColoringSystem,
    length: int,
    limit: Optional[int] = None,
    node_cap: Optional[int] = None,
) -> Enumeration:
    """All acceptable sequences of exactly ``length``, in lexicographic
    color order, truncated at ``limit`` when given."""
    require_valid(sys)
    if length < 1:
        raise InputError(f"sequence length must be >= 1, got {length}")
    if limit is not None and limit < 0:
        raise InputError(f"limit must be >= 0 or None, got {limit}")
    want = None if limit is None else limit + 1
    found = _Search(sys, node_cap=node_cap).leaves(length, (), want)
    truncated = limit is not None and len(found) > limit
    return Enumeration(sequences=tuple(found[:limit]), truncated=truncated)


def length_profile(
    sys: ColoringSystem, budget: SearchBudget
) -> Union[LengthProfile, Indeterminate]:
    """Exact per-length counts up to the depth cap, from one traversal."""
    require_valid(sys)
    search = _Search(sys, node_cap=budget.node_cap)
    counts, complete = search.profile(budget.depth_cap)
    if not complete:
        longest = max((k + 1 for k, c in enumerate(counts) if c), default=0)
        return Indeterminate(max_seen=longest, nodes=search.nodes_spent)
    return LengthProfile(counts=tuple(counts))


def extendable_colors(
    sys: ColoringSystem,
    prefix: Sequence[int],
    horizon: int,
    node_cap: Optional[int] = None,
) -> frozenset:
    """Colors c such that prefix + (c,) is accepted and still extends to an
    acceptable sequence of length ``horizon``.

    The horizon is clamped to at least one extension step, so a horizon
    equal to len(prefix) asks which single extensions stay acceptable.
    An empty result proves the prefix cannot reach the horizon.
    """
    require_valid(sys)
    prefix = tuple(prefix)
    violation = check_sequence(sys, prefix)
    if violation is not None:
        raise InputError(f"prefix is not accepted: {violation.message()}")
    if horizon < len(prefix):
        raise InputError(f"horizon {horizon} shorter than the prefix ({len(prefix)})")
    target = max(horizon, len(prefix) + 1)
    search = _Search(sys, node_cap=node_cap)
    out = set()
    cand = search._cands(len(prefix), prefix)
    while cand:
        low = cand & -cand
        cand ^= low
        c = low.bit_length() - 1
        if search.leaves(target, prefix + (c,), 1):
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
    require_valid(sys)
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    node_cap = budget.node_cap if budget is not None else None
    search = _Search(sys, node_cap=node_cap)
    try:
        found = search.leaves(horizon, (sys.origin,), 1)
    except BudgetExhausted:
        return Indeterminate(max_seen=search.max_seen, nodes=search.nodes_spent)
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
    require_valid(sys)
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
    require_valid(sys)
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
