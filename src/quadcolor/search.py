"""Backtracking search over the acceptable-coloring space.

All searches walk sequences in diagonal order, extending one tile at a
time.  The tile at index k only constrains against its left and below
neighbors, whose indices are k-s-1 and k-s for s = x+y, so feasibility of
an extension is O(1) given the prefix.  Colors are always tried in
ascending numeric order, which makes every result deterministic:
enumerations come out lexicographic and first-found witnesses are
reproducible.

Chains, enumeration and exhaustion all call one function, _leaves, a
walk over the tree of accepted sequences with one of two prune horizons:
a fixed target length, or (exhaustion) one past the longest length seen
so far, which grows as the walk finds longer prefixes.  Each descent
computes the next tile's candidates as one mask expression: the walk
reads both neighbors from slot tables (_slots), with a wall color in
slot 0 whose successors are every color standing in for the axes, and
ANDs in a per-index mask holding the origin bit and the prune.  Its
successor tables with the wall appended, and the masks of the colors
that have a successor, come from a per-mask cache (_walled), so a walk's
set-up derives no table.  The loop places the candidates one at a time,
computing the next tile's candidates right after each placement, and
backtracks when none is left.

An exhaustion walk backjumps (Gaschnig 1979): when a tile has no
candidate the moment it is reached, the walk resumes at the later of its
two neighbors, not at the tile before it.  Only those neighbors and
the tile's mask decide its candidates, the tiles in between change
neither, and the prune marks only shrink, so every retry in between
would find the tile dead again.  Such a retry places at most as many
tiles as the walk already has, so it could neither grow the horizon nor
reach a leaf: verdicts, lengths and record bytes are the walk's without
the jump, in fewer nodes.  A fixed-target walk (chains and enumeration)
does not jump for now: the jump would cut the example chain's walk from
9.3 M nodes to 0.27 M, under the interval at which perfbench's speed
probe publishes, so it waits for the probe's repair.

The walk holds no state between calls.  The prune drops colors whose H-
or V-successor set is empty once the neighbor tile they doom falls
inside the horizon.  This never changes a result (the tests compare
against brute-force filtration) but lets bounded systems die fast.

Every search walks one tree whatever its budget: a node cap cuts short
the unbudgeted walk, in the same order, and the caller reports what it
reached (Indeterminate, or no witness and the largest period whose torus
shapes were all searched).

The length profile sweeps frontier words level by level, not the tree,
merging prefixes that end in the same word and counting them together.

classify decides a system in four steps, cheapest first: an origin color
with both self-loops, a 1-D shadow (a coloring constant along x, y, x + y
or x - y, read off four n-node graphs with no search), exhaustion of the
sequence tree, and a torus search over row graphs.  Each shadow graph is
a relation mask and a node set, and its infinite-walk nodes are cached
by those (_walkers), so the shadow test is a few table reads.  A shadow
colors the quadrant, so it stands in for the dive to the depth cap that
exhaustion would make.  The torus search reads its period order from a
cache (_periods) and skips each p x q shape whose column 0 cannot close:
column 0 of a p x q torus is a closed V-walk of q cells, each the first
cell of a wrap-legal width-p row, so where no such walk leaves the
origin color no torus of that shape exists.  That rule reads V only
between the colors that begin a width-p row, so it is cached by that
part of V (_heights), which systems that differ elsewhere share.  It
builds a width's row graph only when one of its shapes survives.  Its
row graphs keep their H half, and a memo of the unions their V half
reads, cached by H's table (_wrap_rows).  The verdicts that carry no
witness are shared, one object per length or per (depth, period
reached).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence, Union

from .diagonal import _geometry
from .systems import (
    Bounded,
    ColoringSystem,
    HasColoring,
    InputError,
    MAX_COLORS,
    PeriodicWitness,
    Unknown,
    Verdict,
    _is_int,
    _relation,
    _successors,
)


def _is_count(value) -> bool:
    """An int >= 1; bools are not counts."""
    return _is_int(value) and value >= 1


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


@lru_cache(maxsize=32)
def _slots(target: int) -> tuple[list, list]:
    """(left, below) for the indices below target: the walk's slots of tile
    k's left neighbor (index k-s-1, s = x+y) and lower one (index k-s).
    Tile i sits in slot i + 1, and slot 0, the wall, stands in for the
    neighbor of a tile with x = 0 or y = 0."""
    xs, ss = _geometry(target)
    left = [k - ss[k] if xs[k] else 0 for k in range(target)]
    below = [k - ss[k] + 1 if xs[k] < ss[k] else 0 for k in range(target)]
    return left, below


@lru_cache(maxsize=4096)
def _walled(n: int, mask: int) -> tuple[tuple, int]:
    """(succ, live), the walk's tables of an n*n-bit relation mask: succ is
    its successor masks with the wall color n's appended, which is every
    color, and live the bitmask of the colors with a successor.  Shared by
    every walk on a system with the mask, so a walk's set-up derives
    nothing; all 512 masks at n = 3 fit."""
    succ = _successors(n, mask)
    live = 0
    for c, later in enumerate(succ):
        if later:
            live |= 1 << c
    return succ + ((1 << n) - 1,), live


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
    prefix's length.  This is the hot loop of the whole package, so tile
    k's candidates are one expression on locals: the H successors of the
    color in slot left[k], the V successors of the one in slot below[k],
    and masks[k], which holds the origin bit at k = 0 and the prune.  The
    wall color n has every color as H and V successor.  Each index e <=
    edge prunes its lower neighbor by live_v and its left one by live_h,
    as the walk starts or its edge grows to e; the wall's marks land in
    masks[target], which no tile reads.  seq is written in place, so
    backtracking only pops the candidate stack.

    A growing walk backjumps: a tile k that has no candidate when first
    reached sends the walk back to slot max(left[k], below[k]), its later
    neighbor, whose untried colors are next; it returns when that slot is
    the wall or a prefix tile.  This is exact: the tiles after that
    neighbor do not enter k's candidates, masks[k] only loses bits, and
    having placed k tiles the walk already has edge >= k, so no retry of
    those tiles could raise the edge or reach a leaf without placing k.  A
    tile whose candidates ran out after being tried backtracks one tile,
    since the subtrees it tried read the tiles in between.  A fixed-target
    walk does not jump for now (see the module docstring).  The dead test
    is the one branch after each placement, so a live node pays nothing
    for the jump.  A node cap cuts this same walk short.
    """
    k = base = len(prefix)
    if k >= target:
        return [tuple(prefix)], k
    n = sys.n
    full = (1 << n) - 1
    h, live_h = _walled(n, sys.h_mask)
    v, live_v = _walled(n, sys.v_mask)
    left, below = _slots(target)
    seq = [n] * (target + 1)
    seq[1:k + 1] = prefix
    nodes_left = node_cap
    deepest = k
    last = target - 1
    edge = k if grow else last
    masks = [full] * (target + 1)
    masks[0] = 1 << sys.origin
    for e in range(edge + 1):
        masks[below[e] - 1] &= live_v
        masks[left[e] - 1] &= live_h
    out: list = []
    stack = []
    cand = h[seq[left[k]]] & v[seq[below[k]]] & masks[k]
    if not cand:
        return out, deepest
    while True:
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
                seq[target] = low.bit_length() - 1
                out.append(tuple(seq[1:]))
                if len(out) == want:
                    return out, deepest
                # the leaf's colors are spent: backtrack one tile at a time
                while not cand:
                    if not stack:
                        return out, deepest
                    cand = stack.pop()
                    k -= 1
                continue
            # only a growing walk gets here: a new longest prefix
            edge = deepest = k + 1
            masks[below[edge] - 1] &= live_v
            masks[left[edge] - 1] &= live_h
        k += 1
        seq[k] = low.bit_length() - 1
        stack.append(cand)
        cand = h[seq[left[k]]] & v[seq[below[k]]] & masks[k]
        if not cand:
            if grow:
                # tile k is dead as reached: resume at its later neighbor
                back = max(left[k], below[k]) - 1 - base
                if back < 0:
                    return out, deepest
                cand = stack[back]
                del stack[back:]
                k = back + base
            while not cand:
                if not stack:
                    return out, deepest
                cand = stack.pop()
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
    if not _is_count(length):
        raise InputError(f"sequence length must be an int >= 1, got {length!r}")
    return Enumeration(sequences=tuple(_leaves(sys, length, (), None)[0]))


def length_profile(sys: ColoringSystem, length: int) -> LengthProfile:
    """Exact counts of the acceptable sequences of each length up to
    ``length``, from one sweep over frontier words.

    Before tile k = (x, y) with s = x + y is placed, its frontier word
    holds the colors of tiles k-s-1..k-1, or k-s..k-1 when x == 0: exactly
    the placed tiles whose right or upper neighbor is still unplaced, so
    the word alone decides every extension.  Each level maps a word to the
    number of accepted prefixes ending in it, and counts[k] is the sum of
    those numbers once tile k is placed.
    """
    if not _is_count(length):
        raise InputError(f"sequence length must be an int >= 1, got {length!r}")
    h_next = sys.h_next
    v_next = sys.v_next
    full = (1 << sys.n) - 1
    counts = [0] * length
    frontier = {(): 1}
    xs, ss = _geometry(length)
    for k in range(length):
        x = xs[k]
        grown: dict = {}
        for word, mult in frontier.items():
            cand = full if k else 1 << sys.origin
            if x:
                cand &= h_next[word[0]]
            if x < ss[k]:  # y > 0
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
    slower; the tests check the two agree, growing each step with
    brute_extendable, which shares no code with the walk).

    Returns Unreachable when no acceptable sequence of that length exists,
    Indeterminate when the node budget runs out first.
    """
    if not _is_count(horizon):
        raise InputError(f"horizon must be an int >= 1, got {horizon!r}")
    node_cap = budget.node_cap if budget is not None else None
    found, longest = _leaves(sys, horizon, (sys.origin,), 1, node_cap=node_cap)
    if found is None:
        return Indeterminate(max_seen=longest, nodes=node_cap)
    if not found:
        return Unreachable(horizon)
    return found[0]


@lru_cache(maxsize=16)
def _wrap_rows(h_next: tuple, p: int) -> tuple[tuple, tuple, tuple]:
    """The H half of the width-p row graph, as (rows, with_color, unions).

    rows: every length-p row legal on a width-p cylinder (consecutive pairs
    and the wrap pair (row[-1], row[0]) in H), lexicographically sorted.
    with_color[x][c]: the bitset of the rows with color c at position x.
    unions[x]: a memo from a color mask m to the union of with_color[x][d]
    over the d in m, filled on demand by _row_graph.

    Cached by H's table: a census classifies a run of systems that share
    one canonical H, each at every width up to the period cap, and every
    caller with this H gets the same objects.
    """
    n = len(h_next)
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
            if h_next[row[-1]] >> row[0] & 1:
                rows.append(row)
    with_color = [[0] * n for _ in range(p)]
    for j, row in enumerate(rows):
        for x, c in enumerate(row):
            with_color[x][c] |= 1 << j
    return tuple(rows), tuple(map(tuple, with_color)), tuple({} for _ in range(p))


def _row_graph(sys: ColoringSystem, p: int) -> tuple[tuple, list, int]:
    """The width-p row graph, as (rows, succ, starts).

    rows: the wrap-legal rows of _wrap_rows.
    succ[i]: the bitset of row indices j such that rows[j] may sit on top
    of rows[i], i.e. every column pair (rows[i][x], rows[j][x]) is in V.
    starts: the bitset of the rows whose first cell has the origin color.
    """
    rows, with_color, unions = _wrap_rows(sys.h_next, p)
    # above[x][c]: the rows whose color at position x may sit on top of c;
    # the rows of distinct colors at x are disjoint, so a sum is a union
    above = []
    for colored, memo in zip(with_color, unions):
        masks = []
        for allowed in sys.v_next:
            if allowed not in memo:
                memo[allowed] = sum(bits for d, bits in enumerate(colored) if allowed >> d & 1)
            masks.append(memo[allowed])
        above.append(masks)
    succ = []
    for row in rows:
        acc = (1 << len(rows)) - 1
        for x, c in enumerate(row):
            acc &= above[x][c]
        succ.append(acc)
    return rows, succ, with_color[0][sys.origin]


def _closing_heights(sys: ColoringSystem, firsts: tuple, cap: int) -> int:
    """The heights q <= cap at which column 0 of a width-p torus can close,
    as a bitmask with bit q set: those of the closed V-walks of q steps from
    the origin color through the colors that begin a wrap-legal width-p row
    (firsts[c], the rows with color c at position 0, is not empty).

    The walk reads V only between those colors, which include the origin
    when any walk closes, so the answer is read from a cache (_heights)
    keyed by that part of V alone: systems that differ elsewhere share it.
    """
    through = 0
    for c, rows in enumerate(firsts):
        if rows:
            through |= 1 << c
    o = sys.origin
    if not through >> o & 1:
        return 0
    n = sys.n
    return _heights(n, sys.v_mask & _square(n, through), o, through, cap)


@lru_cache(maxsize=256)
def _square(n: int, colors: int) -> int:
    """The n*n-bit relation mask of every pair (c, d) of colors in the
    bitmask ``colors``."""
    rows = 0
    for c in range(n):
        if colors >> c & 1:
            rows |= colors << c * n
    return rows


@lru_cache(maxsize=4096)
def _heights(n: int, v_mask: int, origin: int, through: int, cap: int) -> int:
    """_closing_heights' walk, on a V mask cut to the colors in ``through``."""
    full = (1 << n) - 1
    heights = 0
    reach = 1 << origin
    for q in range(1, cap + 1):
        step = 0
        while reach:
            low = reach & -reach
            reach ^= low
            step |= v_mask >> (low.bit_length() - 1) * n & full
        reach = step
        heights |= (reach >> origin & 1) << q
    return heights


@lru_cache(maxsize=16)
def _periods(cap: int) -> tuple:
    """(p * q, p, q) for every period up to the cap, in search order."""
    return tuple(sorted((p * q, p, q) for p in range(1, cap + 1) for q in range(1, cap + 1)))


def find_periodic_witness(
    sys: ColoringSystem, budget: SearchBudget, reached: Optional[list] = None
) -> Optional[PeriodicWitness]:
    """Search torus colorings over all periods up to the cap, smallest area
    first (ties by p, then q).  Cell (0, 0) is pinned to the origin color.
    Returns the first witness found, or None when there is none or when the
    node cap runs out first (each row placed costs p nodes).

    When it returns None and ``reached`` is a list, the search appends the
    largest period c whose shapes (every p x q with p, q <= c) it searched
    in full: the period cap, unless the node cap cut it short.  That is at
    least 1, since the 1 x 1 shape has at most one row, the origin's, and
    a node cap is at least 1.  classify writes it into Unknown.

    Rows are the search unit: a p x q torus coloring is a closed walk of
    length q in the row graph, whose nodes are the horizontally wrap-legal
    rows and whose edges are vertical compatibility.  The graph is built
    at most once per width p, with each row's successors as a bitset of
    row indices.  Rows are sorted, so walking successors lowest bit first
    visits complete colorings in the same order as a cell-by-cell search:
    the first witness is the lexicographically least one, but failed
    branches die a whole row at a time.

    The search first works out, when the period order first reaches width
    p, the heights q at which column 0 can close (_closing_heights), and
    skips every other (p, q) shape: column 0 of a p x q torus is a closed
    V-walk of q cells from the origin color, and each of its cells begins
    a row of the torus, so a wrap-legal width-p row.  A width none of
    whose heights can close builds no row graph.  A node cap stops this
    same search once a row would take it past the cap.
    """
    nodes_left = budget.node_cap
    cap = budget.period_cap
    heights: dict = {}
    graphs: dict = {}
    periods = _periods(cap)
    for i, (_, p, q) in enumerate(periods):
        if p not in heights:
            heights[p] = _closing_heights(sys, _wrap_rows(sys.h_next, p)[1][0], cap)
        if not heights[p] >> q & 1:
            continue
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
                    if reached is not None:
                        # the shapes from this one on are not all searched
                        reached.append(min(max(p, q) for _, p, q in periods[i:]) - 1)
                    return None
                nodes_left -= p
            j = low.bit_length() - 1
            if len(walk) + 1 < q:
                walk.append(j)
                stack.append(succ[j])
            elif succ[j] >> (walk[0] if walk else j) & 1:
                walk.append(j)
                return PeriodicWitness(p=p, q=q, rows=tuple(rows[j] for j in walk))
    if reached is not None:
        reached.append(cap)
    return None


@lru_cache(maxsize=4096)
def _walkers(n: int, mask: int, nodes: int) -> int:
    """The largest subset of ``nodes`` in which every member has a
    successor inside the subset, in the graph of an n*n-bit relation mask,
    as a bitmask: the nodes that start an infinite walk within ``nodes``.
    Found by iterated sink removal: drop every node with no successor left
    in the subset, until a round drops none.  Cached, since it depends on
    the mask and the node set alone: every (mask, nodes) key at n = 3
    fits, so a census's shadow tests read their answers from here."""
    while True:
        kept = 0
        rest = nodes
        while rest:
            low = rest & -rest
            rest ^= low
            # row c of the mask, cut to the nodes, is c's successors there
            if mask >> (low.bit_length() - 1) * n & nodes:
                kept |= low
        if kept == nodes:
            return nodes
        nodes = kept


def _shadows(sys: ColoringSystem) -> Iterator[bool]:
    """Whether the quadrant has a coloring g(x, y) = f(t) that is constant
    along a direction, for t = x, y, x + y and x - y in turn.

    f is a walk over the colors with f(0) the origin color, and g colors
    the quadrant exactly when every step (f(t), f(t + 1)) is an edge of
    that shadow's graph and the walk goes on forever:
      t = x:     c -> e iff (c, e) in H, over the colors with a V self-loop;
      t = y:     the same with H and V swapped;
      t = x + y: c -> e iff (c, e) in H and in V;
      t = x - y: c -> e iff (c, e) in H and (e, c) in V, since the tile
                 above (x, y) carries f(t - 1).  t runs over all of Z here,
                 so the origin needs an infinite walk backward as well.
    The graphs are relation masks: H over V's loops, V over H's loops,
    H & V, and H & transpose(V), whose transpose V & transpose(H) is the
    backward walk.  They are built from the system's masks and the
    transposes and loops of _relation, and each answer is one read of the
    _walkers cache: no search, and no derivation on a cache hit.
    """
    n = sys.n
    o = sys.origin
    if not (sys.h_next[o] and sys.v_next[o]):
        # every kind steps from the origin by H, and to or from it by V
        yield from (False, False, False, False)
        return
    h = sys.h_mask
    v = sys.v_mask
    h_t, h_loops = _relation(n, h)
    v_t, v_loops = _relation(n, v)
    full = (1 << n) - 1
    yield bool(_walkers(n, h, v_loops) >> o & 1)
    yield bool(_walkers(n, v, h_loops) >> o & 1)
    yield bool(_walkers(n, h & v, full) >> o & 1)
    yield bool(_walkers(n, h & v_t, full) >> o & 1 and _walkers(n, v & h_t, full) >> o & 1)


# The verdict of an origin color with both self-loops, one object per color:
# the constant 1x1 torus.
_CONSTANT = tuple(HasColoring(PeriodicWitness(p=1, q=1, rows=((c,),))) for c in range(MAX_COLORS))
# The other verdicts without a witness, one object per length or per
# (depth, period cap), so a census's class table holds a few dozen objects
# for the collector to walk instead of one per class.
_bounded = lru_cache(maxsize=None)(Bounded)
_unknown = lru_cache(maxsize=None)(Unknown)


def classify(sys: ColoringSystem, budget: SearchBudget) -> Verdict:
    """Full verdict for one system, in four steps.

    1. An origin color with an H and a V self-loop colors the quadrant
       constantly, and the 1x1 torus (one object per origin color) is
       returned without search.  Bounded and Unknown verdicts are shared
       the same way, one object per length and per (depth, period
       reached), so equal verdicts are the same object.
    2. A 1-D shadow (_shadows, a few reads of the per-mask caches
       _relation and _walkers) proves that the quadrant has a coloring.
       Its first depth_cap tiles are then an accepted sequence, so
       exhaustion would return ReachedCap(depth_cap) and is skipped.
    3. Otherwise the sequence tree is exhausted: ExactMax proves the system
       Bounded.
    4. Only when the tree reached the depth cap, or ran out of nodes, is a
       torus witness searched for.  Unknown records the depth reached and
       the largest period whose shapes the torus search finished: the
       period cap, unless its node cap ran out first.

    No order of these steps changes a verdict.  A witness colors the whole
    quadrant, so it cannot coexist with an exhausted tree, and the two
    searches spend separate node budgets.  So steps 3 and 4 give the same
    verdict as trying witnesses first, and for a system that step 1 settles
    they return its 1x1 torus: it is the first period find_periodic_witness
    tries, at a cost of one node, and node_cap is always >= 1.  A node cap
    cuts short the searches of these steps and nothing else, so a shadowed
    system's Unknown records the depth cap under any budget.
    """
    o = sys.origin
    if (sys.h_mask & sys.v_mask) >> (o * sys.n + o) & 1:
        return _CONSTANT[o]
    if any(_shadows(sys)):
        result = ReachedCap(budget.depth_cap)
    else:
        result = max_accept_length(sys, budget)
        if isinstance(result, ExactMax):
            return _bounded(result.length)
    reached: list = []
    witness = find_periodic_witness(sys, budget, reached)
    if witness is not None:
        return HasColoring(witness)
    depth = result.depth if isinstance(result, ReachedCap) else result.max_seen
    return _unknown(depth, reached[0])
