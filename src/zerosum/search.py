"""Exact zero-sum invariants by pruned exhaustive search.

The invariant s_L(G) is the least l such that every sequence over G of
length l has a nonempty zero-sum subsequence with length in L; equivalently
1 + (maximum length of an L-free sequence).  L-freeness is closed under
taking subsequences, so the L-free sequences form a prefix tree of canonical
(index-sorted) multisets which a DFS can exhaust.

The tree is finite.  g^l sums to 0 whenever ord(g) | l, so g appears at most
cap(g) = min{l in L : ord(g) | l} - 1 times in an L-free sequence, and no
L-free sequence is longer than the sum of cap(g) over G.  ``s_L`` searches
to that limit, so only a node or time budget can leave its answer unknown.

Pruning is a subset-sum dynamic program over (group element, subsequence
length) pairs, packed into one Python int.  A subset of G is an |G|-bit int
indexed in group-table order, and the state holds T such rows: row l is the
negated set {-s} of the sums s of the subsequences with l terms.  Only the
members of L up to the depth searched matter.  When they form an interval
[1, k] (for L = [1, k], N or {1, ..., k}), row l counts subsequences of at
most l terms, and once k reaches that depth one self-closed row holding
every subsequence sum serves.  Any other L counts exactly l terms in row l.
Appending g can only create zero-sum subsequences through the new copy, so
g is banned iff -g is the sum of a subsequence of length l-1 for some l in
L: the banned candidates are the OR of rows l-1, and the DFS walks the
other bits in ascending order.  Appending g translates the rows by -g, one
masked rotation per nonzero coordinate of g, and ORs the result one row up
(into the same row when it is self-closed).

One iterative DFS, ``_dfs``, serves every caller and returns one named
``_Outcome``: it maximizes the length, and can also collect every sequence
of a fixed length (for partitioning the tree into subtasks, and for
``enumerate_extremal``).

The maximization is a branch-and-bound on the same caps.  Admissibility
only shrinks down the tree and later terms are never below the last one, so
below a node of length d at most the sum of cap(g) over its admissible
candidates, less the copies of the last term already used, more terms fit.
A node whose d plus that sum does not exceed the best length found has its
children dropped; as ties never replace the best, the witness stays the
lexicographically least one.  The bound is off when collecting, which needs
every sequence, and on the self-closed row (L = N, or an interval reaching
the limit), where cap(g) = ord(g) - 1 barely prunes and costs more time than
it saves.

Every maximization restricts the first term to the elements that come first
in their Aut(G)-orbit (``groups.orbit_minima``, read from Ulm classes).  The
lexicographically least L-free sequence of maximum length is least in its
orbit, since phi(S) sorts below S whenever phi maps S's first term below it,
so its first term is such an element: value and witness equal those of the
unrestricted search.  This is the first level of orderly generation (R. C.
Read, Ann. Discrete Math. 2 (1978); B. D. McKay, J. Algorithms 26 (1998)).

On groups whose automorphisms fit a permutation table
(``groups.automorphism_permutations``: |G| <= 256 and |Aut(G)| <= 2^14,
decided from the closed-form count; 20 of the 23 groups of rank >= 2 and
order <= 32, all but C_2^4, C_2^3 x C_4 and C_2^5, and C_n for
2 <= n <= 256), the search is orderly to depth 4: a node of 1 to 3 terms
keeps a child t only if its sorted prefix Q.t is least among its sorted
images under Aut(G).  Every prefix P of the least longest sequence W is
least in its orbit: were sorted phi(P) below P, adding the rest of W could
only lower the order statistics of the image, so sorted phi(W) would be
below W.  Value and witness stay those of the unrestricted search.  The
children kept below Q depend on (G, Q) alone and are computed once per
group and prefix (``_orderly_children``), with big-int operations on byte
lanes, one lane per map, rather than by a pass over Aut(G) per node.
Each process keeps its own cache; pool workers outlive a call, so their
caches serve the later pooled calls that reuse the pool.
Other groups keep the orbit-minimum roots: the same rule cut at depth 1.

When exp(G) divides every member of L, the root's only child is 0 instead
(and under orderly generation the children of (0,) are then masked).
Then l*g = 0 for every l in L, so S - g is L-free whenever S is: the
translation invariance behind Erdos-Ginzburg-Ziv (1961) and the
s_{k exp(G)} literature (Gao-Geroldinger, Expo. Math. 24 (2006)).
Translating a longest L-free sequence by minus its first term gives one
that contains 0, which is index 0 and sorts first, so the lexicographically
least longest one starts with 0: value and witness are unchanged.  This
composes with the flag trick below: its images come from linear maps, which
fix 0, so the flag tree's least longest sequence starts with 0 too (the
flag root's children are 0 and the first flag member).

``symmetry_reduction`` (off by default) switches on the flag trick instead,
on homocyclic groups of prime exponent only.  In canonical order, the j-th
appended element that leaves the subgroup generated by the previous ones can
be forced to the j-th member of a fixed flag, because the stabilizer of the
flag prefix acts transitively on the elements outside its span and fixes the
span pointwise; this changes witnesses but not values.  Table order is
base-p order and the flag is the indices 1, p, ..., p^(r-1), so a span is
always an index prefix: the indices below the least power of p above the
last term, which alone fixes a node's children.  On every other group
``symmetry_reduction`` changes nothing.

On the self-closed layout the maximization keeps a transposition table
instead of the bound.  There the subtree below a node depends only on its
state row and its last term t (the least candidate, and under the flag
trick the flag mask), and different prefixes often reach the same pair.
Per DFS call, ``memo[t]`` maps a state to the longest extension found below
a node with that key.  A node with children left after the flag and root
masks whose key is stored skips its subtree when its length plus that
extension does not exceed the best length found (ties never replace the
best, so the witness stays the lexicographically least).  Nothing below the
limit is cut, so every entry is exact.  The table holds at most
``_TABLE_ENTRIES`` (8,192) entries and is cleared when full, which bounds
its memory and keeps node counts deterministic.  A skipping node counts as
one visited node and its subtree counts nothing.  The table is local to one
call, so partitioned subtasks keep node counts that do not depend on the
worker count.  Under orderly generation only nodes of at least 4 terms are
stored: their subtrees have no orderly cuts, so each entry is the exact
extension of the uncut subtree.  Lookups happen at every depth, since the
cut subtree of a shallower node with the same key can only be shallower.
"""

from __future__ import annotations

import atexit
import math
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import NamedTuple

from .errors import InvalidInputError
from .groups import (
    GroupSpec,
    automorphism_permutations,
    enumerate_automorphisms,
    group_table,
    is_prime,
    orbit_minima,
    permutation_table_fits,
)
from .sequences import LengthSet, Sequence, orbit_canonical, sigma

_DEFAULT_NODE_BUDGET = 10**8
# Entries the self-closed transposition table holds before it is cleared.
_TABLE_ENTRIES = 8192
# Orderly generation checks every prefix of up to this many terms; the
# transposition table stores only nodes this deep, whose subtrees it never cuts.
_ORDERLY_DEPTH = 4


@dataclass(frozen=True)
class SearchConfig:
    """Budgets and strategy knobs for the DFS.

    The time budget is wall-clock and therefore not reproducible across
    machines; results are deterministic when the search finishes or stops on
    the node budget.  Every search restricts the first term to Aut(G)-orbit
    minima, or to 0 when exp(G) divides every member of L (translation),
    and on groups with a small permutation table (|G| <= 256,
    |Aut(G)| <= 2^14: C_3^3, C_3 x C_9 and C_n^2 for n <= 12 among them)
    checks every prefix of up to 4 terms for orbit-leastness (orderly
    generation); all keep the value and the witness.
    ``symmetry_reduction`` replaces the orbit minima and orderly
    generation by the flag trick on homocyclic groups of prime exponent
    (same value, possibly another witness; translation still applies) and
    changes nothing on other groups.  A
    positive ``parallel_depth`` splits the tree into subtasks at that depth;
    ``workers`` > 1 runs them in a process pool and, with
    ``parallel_depth`` 0, splits at depth 2.  The pooled searches of a
    process share one pool, which outlives each call: a call reuses it
    when it has min(workers, subtasks, usable CPUs) processes, and
    otherwise replaces it by one of that size.  Searches have no depth cap:
    the multiplicity caps bound the tree, so only the budgets can stop a
    search short.
    """

    node_budget: int = _DEFAULT_NODE_BUDGET
    time_budget: float | None = None
    symmetry_reduction: bool = False
    parallel_depth: int = 0
    workers: int = 1

    def __post_init__(self):
        if not self.node_budget >= 1:
            raise InvalidInputError("node_budget must be positive")
        if self.time_budget is not None and not self.time_budget > 0:
            raise InvalidInputError("time_budget must be positive")
        if not all(isinstance(n, int) for n in (self.parallel_depth, self.workers)):
            raise InvalidInputError("parallel_depth and workers must be integers")
        if self.parallel_depth < 0 or self.workers < 1:
            raise InvalidInputError("bad parallel settings")


@dataclass(frozen=True)
class SearchStats:
    """Nodes visited, candidates banned, wall seconds, and the symmetry the
    search ran: "roots" (orbit-minimum first terms), "translation" (the
    first term is 0, when exp(G) divides every member of L), "orderly" or
    "orderly+translation" (prefixes of up to 4 terms orbit-least, on groups
    with a permutation table: ``groups.permutation_table_fits``), "flag" or
    "flag+translation" with the flag trick, or "none" for a result
    certified infinite without a search."""

    nodes: int
    pruned: int
    seconds: float
    symmetry: str


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an invariant search.

    ``value`` is set only when the search completed and the invariant is
    finite; ``infinite`` marks a certified failure of finiteness; otherwise
    a node or time budget stopped the search, and the value is unknown but
    ``best_length`` and ``witness`` carry the longest L-free sequence found,
    so s_L(G) >= best_length + 1.
    """

    group: GroupSpec
    L: LengthSet
    value: int | None
    infinite: bool
    complete: bool
    witness: Sequence | None
    best_length: int | None
    stats: SearchStats

    def value_label(self) -> str:
        if self.infinite:
            return "infinite"
        if self.value is None:
            return "unknown"
        return str(self.value)


def _layout(L: LengthSet, cap: int) -> tuple[int, bool, bool, tuple[int, ...]]:
    """(rows, self-closed, at most l terms in row l, banned rows) of the
    packed state for L, searched to length ``cap``.

    Candidates are tested at lengths up to ``cap``, so only the members of L
    up to it matter; they are read from L's kind, so the cost does not grow
    with ``cap``.  When they form an interval [1, k], row k-1 with at most
    k-1 terms bans what rows 0..k-1 with exactly l terms would; for
    k >= cap one self-closed row does.  The top row is always banned when
    any is.
    """
    if L.kind == "explicit":
        members = sorted(l for l in L.members if l <= cap)
    else:  # N is [1, cap] up to cap
        members = range(1, min(L.k or cap, cap) + 1)
    if members and members[-1] == len(members):  # members = [1, k]
        k = len(members)
        return (1, True, True, (0,)) if k >= cap else (k, False, True, (k - 1,))
    banned = tuple(l - 1 for l in members)
    return (banned[-1] + 1 if banned else 0), False, False, banned


def _multiplicity_caps(G: GroupSpec, L: LengthSet) -> tuple[tuple[int, int], ...]:
    """(cap, elements) pairs, ascending in cap and omitting cap 0: how often
    each element can appear in an L-free sequence, grouped by that number.

    g^l sums to 0 whenever ord(g) | l, so g appears at most
    min{l in L : ord(g) | l} - 1 times: ord(g) - 1 for an interval or N.
    Only for a finite s_L, where every order divides some member of L.
    """
    table = group_table(G)
    by_order: dict[int, int] = {}
    for i in range(len(table.elements)):
        o = table.element(i).order()
        by_order[o] = by_order.get(o, 0) | 1 << i
    by_cap: dict[int, int] = {}
    for o, elements in by_order.items():
        cap = (min(l for l in L.members if l % o == 0) if L.kind == "explicit" else o) - 1
        by_cap[cap] = by_cap.get(cap, 0) | elements
    return tuple((cap, elements) for cap, elements in sorted(by_cap.items()) if cap)


def _search_limit(G: GroupSpec, L: LengthSet) -> int:
    """The sum of the multiplicity caps: no L-free sequence is longer."""
    return sum(c * elements.bit_count() for c, elements in _multiplicity_caps(G, L))


def _translation(factors: tuple[int, ...], rows: int, coords) -> tuple[tuple[int, ...], ...]:
    """Masked rotations translating each of ``rows`` packed rows of |G| bits
    by the element ``coords``: one (lo, hi, up, down) per nonzero coordinate,
    applied as ``((x & lo) << up) | ((x & hi) >> down)``."""
    m = math.prod(factors)
    full = (1 << rows * m) - 1
    out = []
    stride = m
    for n, c in zip(factors, coords):
        stride //= n
        if c:
            period = n * stride
            rep = full // ((1 << period) - 1)  # bit 0 of every period
            # Coordinate values >= n - c wrap around to the low end.
            hi = ((1 << period) - (1 << (n - c) * stride)) * rep
            out.append((full ^ hi, hi, c * stride, (n - c) * stride))
    return tuple(out)


def _translate(x: int, moves) -> int:
    for lo, hi, up, down in moves:
        x = ((x & lo) << up) | ((x & hi) >> down)
    return x


@lru_cache(maxsize=None)
def _orderly_children(G: GroupSpec, prefix: tuple[int, ...]) -> int:
    """The t >= Q[-1] whose sorted prefix + (t,) is least among its images
    under Aut(G), as an |G|-bit int, for an orbit-least sorted ``prefix`` Q
    of d terms on a group with an automorphism permutation table; cached
    per process.

    Lane k of a big int is its byte k, for the k-th map phi.  With B the
    sorted phi(Q.t) and P = Q.t, B < P iff some j has B[j] < P[j] and
    B[i] <= P[i] for every i < j; and B[i] <= w iff more than i terms of B
    are <= w.  The count lanes of phi(Q) below Q[j] and below Q[j] + 1 are
    sums of translated table columns, and phi(t) adds one to them according
    to its class among Q's values (below, at or above each).  So, per class
    c, the lanes where some j < d gives B < P, and those where B[i] <= P[i]
    for every i < d, are fixed by Q: bit c of ``decides`` and of ``ties``.
    Per t, one translate puts the class bit of phi(t) in every lane.  Where
    it meets ``decides``, phi cuts Q.t; where it meets ``ties``, phi cuts it
    iff B[d] < t as well, that is, phi(t) and every term of phi(Q) are below
    t.  Counts stay at most d, so no lane carries into the next byte.
    """
    columns = automorphism_permutations(G)
    last = prefix[-1]
    ones = int.from_bytes(b"\x01" * len(columns[0]), "little")

    def lanes(x, table):
        return int.from_bytes(columns[x].translate(table), "little")

    def more(count, j):
        """The lanes where count > j, as 1 in each."""
        return ((count + (127 - j) * ones) >> 7) & ones if j >= 0 else ones

    values = sorted(set(prefix))
    below = {}  # w -> count lanes of the terms of phi(Q) below w
    for w in {v + e for v in values for e in (0, 1)}:
        table = b"\x01" * w + bytes(256 - w)
        below[w] = sum(lanes(x, table) for x in prefix)
    # Per j: the class bound of "phi(t) < Q[j]", then B[j] < P[j] and
    # B[j] <= P[j] without and with phi(t) counted.
    terms = [(2 * values.index(q), more(below[q], j), more(below[q], j - 1),
              more(below[q + 1], j), more(below[q + 1], j - 1))
             for j, q in enumerate(prefix)]
    decides = ties = 0
    for c in range(2 * len(values) + 1):
        decided, tied = 0, ones
        for bound, lt, lt_t, le, le_t in terms:
            decided |= tied & (lt_t if c <= bound else lt)
            tied &= le_t if c <= bound + 1 else le
        decides |= decided << c
        ties |= tied << c
    # b -> 1 << class(b): 2i between values[i-1] and values[i], 2i+1 at values[i].
    classes = bytearray()
    prev = -1
    for i, v in enumerate(values):
        classes += bytes([1 << 2 * i]) * (v - prev - 1) + bytes([2 << 2 * i])
        prev = v
    classes += bytes([1 << 2 * len(values)]) * (255 - prev)
    classes = bytes(classes)

    mask = 0
    for t in range(last, G.order):
        image = lanes(t, classes)
        if image & decides:
            continue
        tied = image & ties
        if tied:
            under = b"\xff" * t + bytes(256 - t)
            for x in (t, *values):
                tied &= lanes(x, under)
                if not tied:
                    break
            else:
                continue
        mask |= 1 << t
    return mask


class _Outcome(NamedTuple):
    """What one DFS call found: the best length (-1 if no node was visited)
    and its index stack, the nodes visited and candidates banned, whether a
    budget stopped it, and the sequences of length ``cap`` collected (empty
    unless collecting)."""

    best: int
    best_stack: tuple[int, ...] | None
    nodes: int
    pruned: int
    stopped: bool
    found: list[tuple[int, ...]]


def _dfs(G, L, node_budget, deadline, symmetry, prefix, cap, collect=False) -> _Outcome:
    """One DFS over the canonical L-free multisets extending a prefix.

    It visits them in lexicographic order down to length ``cap``, keeping
    the longest one met first (the lexicographically least of that length);
    with ``collect`` it also records every one of length ``cap``.  A node of
    length ``cap`` is not expanded.  The maximization passes the sum of the
    multiplicity caps, where no node has children, so it sees the whole
    tree.  Every visited node counts against the node budget, the root
    included; a search of N nodes fits in a budget of N, and one that needs
    more, or passes the deadline, stops with ``stopped`` set.  ``symmetry``
    is None, "flag" (the flag trick: a node's children depend on its last
    term alone), "roots" (the root's children are orbit minima),
    "translation" (the root's only child is 0), "orderly" (orbit minima,
    then the children of every node of 1 to 3 terms are the orderly ones),
    "orderly+translation" or "flag+translation"; the root masks apply only
    without a prefix, the orderly masks below a prefix too.  Pool workers
    run it too, so its arguments pickle.

    Without ``collect``, and off the self-closed layout, a node's children
    are dropped when its length plus the multiplicity caps of its admissible
    candidates (see the module docstring) cannot exceed ``best``.  The sum
    is taken before the flag, root and orderly masks, since deeper nodes
    unlock later flag members and may hold elements an orderly mask cut.
    A dropped subtree could not have changed ``best`` or its witness.  A
    search below a prefix (a partitioned subtask) starts from its own
    ``best``, never a sibling's, so node counts do not depend on scheduling
    or worker count.

    Without ``collect``, on the self-closed layout, the transposition table
    of the module docstring replaces the bound.  Its key is (last term,
    state); a node is looked up only when it has children left after the
    masks, since a leaf gains nothing.  Each open frame keeps the deepest
    length met below it: one more than its own at push, raised by table
    hits among its children and by its children's frames as they pop, so
    leaves cost nothing.  A popped node stores that length less its own
    (under orderly generation only at depth 4 or more); a budget or
    deadline stop leaves the loop before any pop, so every entry is exact.
    A hit was already counted as a visited node, so budgets keep their
    meaning.
    """
    table = group_table(G)
    m = len(table.elements)
    factors = G.factors
    rows, closed, at_most, banned_rows = _layout(L, cap)
    # The bound is off on the self-closed layout: there cap = ord - 1, too
    # weak to pay for itself.
    caps = None if closed or collect else _multiplicity_caps(G, L)
    row = (1 << m) - 1
    full = (1 << rows * m) - 1
    step = 0 if closed else m
    top = (rows - 1) * m if rows else 0
    lower = tuple(r * m for r in banned_rows if r < rows - 1)
    moves: list = [None] * m

    def move_by(gi):
        """The translation by -g, built on first use."""
        move = moves[gi]
        if move is None:
            move = moves[gi] = _translation(factors, rows, table.elements[table.neg[gi]])
        return move

    # The empty subsequence sums to 0 with length 0.
    y = full // row if at_most else 1 & full
    for gi in prefix:
        y |= (_translate(y, move_by(gi)) << step) & full

    modes = set(symmetry.split("+")) if symmetry else set()
    # The root's children: 0 alone under translation, the orbit minima
    # under "roots" or "orderly", else every element.  A subtask's root is
    # a prefix.
    if prefix or not modes & {"translation", "roots", "orderly"}:
        roots = row
    elif "translation" in modes:
        roots = 1
    else:
        roots = orbit_minima(G)
    # Nodes of depth 1 .. orderly_depth - 1 mask their children to orderly
    # ones; the table stores only nodes at least orderly_depth deep.
    orderly_depth = _ORDERLY_DEPTH if "orderly" in modes else 1
    # memo[t]: state -> longest extension below a node with last term t.
    memo = [{} for _ in range(m)] if closed and not collect else None
    stored = 0
    # flag[t]: the indices <= q(t), the least power of p above t; one int per q.
    flag = None
    if "flag" in modes:
        p, flag = G.exponent, [3]
        for j in range(G.rank):
            flag += [(2 << p ** (j + 1)) - 1] * (p ** (j + 1) - p ** j)

    # The state update and banned set below inline move_by and _translate:
    # they run once per node.
    found: list[tuple[int, ...]] = []
    nodes = pruned = 0
    best, best_stack = -1, None
    stopped = False
    # Node count at which to look at the budget and the clock next.
    check = node_budget if deadline is None else min(node_budget, 4096)

    base = len(prefix)
    # The stack of terms grows as the search goes deeper: sized by ``cap``
    # it could hold billions of slots that a budgeted search never reaches.
    seq = list(prefix)
    # Per expanded node: [state, unvisited children], and with the table the
    # deepest length met below it so far.
    frames: list[list] = []
    start = prefix[-1] if base else 0
    depth = base
    while True:
        # Visit the node seq[:depth] with state y, if the budget allows.
        if nodes >= check:
            if nodes >= node_budget or time.monotonic() > deadline:
                stopped = True
                break
            check = min(node_budget, nodes + 4096)
        nodes += 1
        if depth > best:
            best = depth
            best_stack = tuple(seq[:depth])
        if depth >= cap:
            if collect:
                found.append(tuple(seq[:depth]))
        else:
            banned = y >> top
            for off in lower:
                banned |= (y >> off) & row
            banned >>= start
            pruned += banned.bit_count()
            avail = ((row >> start) ^ banned) << start
            if caps is not None and avail and depth < best:
                # Every later term is in avail, g at most cap(g) times;
                # room is depth + that bound - best.
                room = depth - best
                for c, elements in caps:
                    room += c * (avail & elements).bit_count()
                if room > 0 and avail & 1 << start:
                    # Less the copies of start already used.
                    i = depth - 1
                    while room > 0 and i >= 0 and seq[i] == start:
                        room -= 1
                        i -= 1
                if room <= 0:
                    avail = 0
            if flag is not None:
                avail &= flag[start]
            if not frames:  # the root
                avail &= roots
            if 0 < depth < orderly_depth and avail:
                avail &= _orderly_children(G, tuple(seq[:depth]))
            if avail:
                if memo is None:
                    frames.append([y, avail])
                else:
                    ext = memo[start].get(y)
                    if ext is not None and depth + ext <= best:
                        # A hit; never at the root, whose table is empty.
                        parent = frames[-1]
                        parent[2] = max(parent[2], depth + ext)
                    else:
                        # Its children are one term longer: the deepest so far.
                        frames.append([y, avail, depth + 1])

        # Move to the next unvisited child of the deepest open node.
        while frames:
            frame = frames[-1]
            avail = frame[1]
            if avail:
                break
            frames.pop()
            if memo is not None and frames:
                # The node seq[:d] is done; store its extension.
                deepest = frame[2]
                d = base + len(frames)
                if d >= orderly_depth:
                    if stored == _TABLE_ENTRIES:
                        for entries in memo:
                            entries.clear()
                        stored = 0
                    memo[seq[d - 1]][frame[0]] = deepest - d
                    stored += 1
                parent = frames[-1]
                if deepest > parent[2]:
                    parent[2] = deepest
        else:
            break
        low = avail & -avail
        frame[1] = avail ^ low
        start = low.bit_length() - 1
        depth = base + len(frames)
        if depth > len(seq):
            seq.append(start)
        else:
            seq[depth - 1] = start
        x = frame[0]
        move = moves[start]
        if move is None:
            move = move_by(start)
        y = x
        for lo, hi, up, down in move:
            y = ((y & lo) << up) | ((y & hi) >> down)
        y = x | ((y << step) & full)

    return _Outcome(best, best_stack, nodes, pruned, stopped, found)


def _symmetry_applicable(G: GroupSpec, L: LengthSet, cfg: SearchConfig) -> str:
    # Flag forcing relies on the stabilizer acting transitively outside the
    # span, which holds when the coordinate ring is a field: prime exponent.
    # Otherwise orderly generation runs where Aut(G) fits a permutation
    # table, and orbit-minimum first terms elsewhere.  When exp(G) divides
    # every member of L, translation roots the search at 0 under any of the
    # three.  All but the flag keep the witness.
    flag = cfg.symmetry_reduction and G.is_homocyclic() and is_prime(G.exponent)
    if flag:
        rule = "flag"
    elif permutation_table_fits(G):
        rule = "orderly"
    else:
        rule = "roots"
    if L.kind == "explicit" and all(l % G.exponent == 0 for l in L.members):
        return "translation" if rule == "roots" else rule + "+translation"
    return rule


def _deadline(cfg: SearchConfig) -> float | None:
    return time.monotonic() + cfg.time_budget if cfg.time_budget else None


# The process pool that pooled searches share, started on first use, and
# its size.  It lives until a call needs another size, a call leaves work
# in it, a worker dies, or the interpreter exits.
_pool = None
_pool_size = 0


def _shutdown_pool() -> None:
    """Shut the shared pool down, cancelling what has not started and
    waiting for its workers, and drop it."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown(cancel_futures=True)


def _forget_pool() -> None:
    """Drop the shared pool without shutting it down: in a forked child it
    is the parent's, whose threads the child does not have."""
    global _pool
    _pool = None


def _shared_pool(size: int):
    """The shared pool if it has ``size`` processes, else a new one of that
    size, started once the old one has shut down."""
    global _pool, _pool_size
    if _pool is not None and _pool_size == size:
        return _pool
    _shutdown_pool()
    # Imported here: the process pool module is a large share of the
    # package's import time, and only pooled searches need it.
    from concurrent.futures import ProcessPoolExecutor

    _pool, _pool_size = ProcessPoolExecutor(max_workers=size), size
    return _pool


# Before interpreter teardown collects the pool, so that exit is quiet and
# leaves no worker behind.
atexit.register(_shutdown_pool)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_partitioned(G, L, cfg, depth, limit, symmetry) -> _Outcome:
    """Split the DFS tree at ``depth`` into independent subtasks.

    Outcomes merge in tree order, so ties keep the serial witness, and the
    subtasks share the node budget as if run one after another: a pool
    result that would not fit in what is left is searched again with exactly
    that budget.  The outcome does not depend on scheduling or worker count.
    The subtasks run in the process's shared pool when it has
    min(workers, subtasks, usable CPUs) processes; otherwise a pool of that
    size replaces it (none when that is 1: the subtasks run here).  Each
    worker keeps the orderly masks it computes for as long as the pool
    lives.  A call that stops on a budget or an exception cancels the
    subtasks that have not started and, if any is still running, shuts the
    pool down; a call that completes keeps it.  A subtask lost to a dead
    worker is searched here, and the broken pool is dropped.
    """
    deadline = _deadline(cfg)
    split = _dfs(G, L, cfg.node_budget, deadline, symmetry, (), min(depth, limit), collect=True)
    if split.stopped or not split.found:
        # Cut during the partition phase, or the whole tree is shallower
        # than the partition depth: that search is the answer.
        return split
    best, best_stack = split.best, split.best_stack
    nodes, pruned, stopped = split.nodes, split.pruned, False
    futures = [None] * len(split.found)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    size = min(cfg.workers, len(split.found), cpus)
    try:
        if size > 1:
            # Imported here, as the pool is (see _shared_pool).
            from concurrent.futures.process import BrokenProcessPool

            pool = _shared_pool(size)
            try:
                futures = [pool.submit(_dfs, G, L, cfg.node_budget - nodes, deadline,
                                       symmetry, pfx, limit) for pfx in split.found]
            except BrokenProcessPool:  # a worker died since the last call
                _shutdown_pool()
        for pfx, future in zip(split.found, futures):
            left = cfg.node_budget - nodes
            sub = None
            if future is not None:
                try:
                    sub = future.result()
                except BrokenProcessPool:  # searched here below
                    _shutdown_pool()
            if sub is None or sub.nodes > left:
                sub = _dfs(G, L, left, deadline, symmetry, pfx, limit)
            if sub.best > best:
                best, best_stack = sub.best, sub.best_stack
            nodes += sub.nodes
            pruned += sub.pruned
            if sub.stopped:
                stopped = True
                break
    finally:
        # Left by a stop or an exception: cancel what has not started.  A
        # task the pool has queued for a worker counts as running.
        running = [f for f in futures if f is not None and not f.cancel() and not f.done()]
        if running:
            _shutdown_pool()
    return _Outcome(best, best_stack, nodes, pruned, stopped, [])


def _sequence_from_indices(G: GroupSpec, indices) -> Sequence:
    """The sequence of a sorted index tuple: table order is coordinate order,
    so each run of equal indices is one term, already in place."""
    element = group_table(G).element
    return Sequence(G, tuple((element(i), len(list(run))) for i, run in groupby(indices)))


def s_L(G: GroupSpec, L: LengthSet, cfg: SearchConfig | None = None) -> SearchResult:
    """Compute s_L(G) by exhaustive search.

    s_L(G) is finite iff some member of L is a multiple of exp(G).  If
    none is, copies of an element of order exp(G) are L-free at every
    length, so the result is certified infinite without searching.  If
    exp(G) | l for some l in L, every order divides some member of L, so
    no L-free sequence is longer than the sum of the multiplicity caps
    (see the module docstring).  The search runs to that limit, and the
    value is unknown only when a node or time budget stops it.
    """
    cfg = cfg or SearchConfig()
    t0 = time.monotonic()
    if not L.has_multiple_of(G.exponent):
        return SearchResult(G, L, None, True, True, None, None,
                            SearchStats(0, 0, time.monotonic() - t0, "none"))
    limit = _search_limit(G, L)
    symmetry = _symmetry_applicable(G, L, cfg)

    # Several workers need subtasks to share out: split at depth 2 unless
    # the config names a depth.
    depth = cfg.parallel_depth or (2 if cfg.workers > 1 else 0)
    if depth > 0:
        outcome = _run_partitioned(G, L, cfg, depth, limit, symmetry)
    else:
        outcome = _dfs(G, L, cfg.node_budget, _deadline(cfg), symmetry, (), limit)
    best = outcome.best

    seconds = time.monotonic() - t0
    complete = not outcome.stopped
    witness = (_sequence_from_indices(G, outcome.best_stack)
               if outcome.best_stack is not None else None)
    value = best + 1 if complete and best >= 0 else None
    best_length = best if best >= 0 else None
    return SearchResult(G, L, value, False, complete, witness, best_length,
                        SearchStats(outcome.nodes, outcome.pruned, seconds, symmetry))


# --- named invariants -------------------------------------------------------


def davenport(G: GroupSpec, cfg: SearchConfig | None = None) -> SearchResult:
    return s_L(G, LengthSet.all_positive(), cfg)


def s_leq(G: GroupSpec, k: int, cfg: SearchConfig | None = None) -> SearchResult:
    return s_L(G, LengthSet.up_to(k), cfg)


def eta(G: GroupSpec, cfg: SearchConfig | None = None) -> SearchResult:
    return s_L(G, LengthSet.up_to(G.exponent), cfg)


def s_egz(G: GroupSpec, cfg: SearchConfig | None = None) -> SearchResult:
    return s_L(G, LengthSet.exactly(G.exponent), cfg)


def s_kexp(G: GroupSpec, k: int, cfg: SearchConfig | None = None) -> SearchResult:
    if k < 1:
        raise InvalidInputError("k must be >= 1")
    return s_L(G, LengthSet.exactly(k * G.exponent), cfg)


# --- enumeration ------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalSet:
    group: GroupSpec
    L: LengthSet
    length: int
    sequences: tuple[Sequence, ...]
    up_to_automorphism: bool
    complete: bool


def enumerate_extremal(G: GroupSpec, L: LengthSet, length: int,
                       cfg: SearchConfig | None = None,
                       up_to_automorphism: bool = False) -> ExtremalSet:
    """All L-free sequences over G of the given length (canonical multisets),
    optionally reduced to lexicographically-least orbit representatives.

    An orbit-least sequence starts at an orbit minimum, so the reduced
    enumeration collects only those before keeping each S with
    ``orbit_canonical(S) == S``."""
    if length < 0:
        raise InvalidInputError("length must be >= 0")
    if up_to_automorphism:
        # Refuses G with more automorphisms than the lister's cap before the
        # search.  next() runs the lister even when it is wrapped in a
        # generator function.
        next(enumerate_automorphisms(G))
    cfg = cfg or SearchConfig()
    outcome = _dfs(G, L, cfg.node_budget, _deadline(cfg), "roots" if up_to_automorphism else None,
                   (), length, collect=True)
    seqs = [_sequence_from_indices(G, idx) for idx in outcome.found]
    if up_to_automorphism:
        seqs = [S for S in seqs if orbit_canonical(S) == S]
    return ExtremalSet(G, L, length, tuple(seqs), up_to_automorphism, not outcome.stopped)


def enumerate_minimal_zero_sum(G: GroupSpec, length: int,
                               cfg: SearchConfig | None = None) -> ExtremalSet:
    """All minimal zero-sum sequences of the given length.

    Built by extending each zero-sum-free sequence W of length-1 with the
    negated sum -sigma(W).  Every such W.(-sigma(W)) is minimal: were
    sigma(T') = sigma(W) for a proper subsequence T' of W, then W minus T'
    would be a nonempty zero-sum subsequence of W.  A sequence is kept only
    when -sigma(W) is its last term in group_table order, so each is built
    once and the output follows the order of the W.
    """
    if length < 1:
        raise InvalidInputError("length must be >= 1")
    free = enumerate_extremal(G, LengthSet.all_positive(), length - 1, cfg)
    seqs = []
    for W in free.sequences:  # lexicographic in group_table order
        g = -sigma(W)
        if not W.terms or not g < W.terms[-1][0]:
            seqs.append(W.with_term(g))
    return ExtremalSet(G, LengthSet.all_positive(), length, tuple(seqs), False,
                       free.complete)
