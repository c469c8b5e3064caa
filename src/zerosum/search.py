"""Exact zero-sum invariants by pruned exhaustive search.

The invariant s_L(G) is the least l such that every sequence over G of
length l has a nonempty zero-sum subsequence with length in L; equivalently
1 + (maximum length of an L-free sequence).  L-freeness is closed under
taking subsequences, so the L-free sequences form a prefix tree of canonical
(index-sorted) multisets which a DFS can exhaust.

Pruning is a subset-sum dynamic program over (group element, subsequence
length) pairs, packed into one Python int.  A subset of G is an |G|-bit int
indexed in group-table order, and the state holds T such rows: row l is the
negated set {-s} of the sums s of the length-l subsequences, with exactly l
terms when L is a singleton or an explicit set and at most l terms when L is
an interval [1, k] below the horizon.  L = N, and an interval reaching the
horizon, need only one self-closed row holding every subsequence sum.
Appending g can only create zero-sum subsequences through the new copy, so g
is banned iff -g is the sum of a subsequence of length l-1 for some l in L:
the banned candidates are the OR of rows l-1, and the DFS walks the other
bits in ascending order.  Appending g translates the rows by -g, one masked
rotation per nonzero coordinate of g, and ORs the result one row up (into
the same row when it is self-closed).

One iterative DFS serves every caller: it maximizes the length, and can
also collect every sequence of a fixed length (for partitioning the tree
into subtasks, and for ``enumerate_extremal``).

Optional symmetry reduction (homocyclic groups of prime exponent only): in
canonical order, the j-th appended element that leaves the subgroup generated
by the previous ones can be forced to the j-th member of a fixed flag,
because the stabilizer of the flag prefix acts transitively on the elements
outside its span and fixes the span pointwise.  This changes witnesses but
not values; it is off by default.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import InvalidInputError
from .groups import GroupSpec, _invertible_matrices, d_star, group_table, is_prime
from .sequences import LengthSet, Sequence, orbit_canonical, sigma

_DEFAULT_NODE_BUDGET = 10**8


@dataclass(frozen=True)
class SearchConfig:
    """Budgets and strategy knobs for the DFS.

    The time budget is wall-clock and therefore not reproducible across
    machines; results are deterministic when the search finishes or stops on
    the node budget.  ``stem`` restricts the search to canonical sequences
    extending the given multiset (symmetry reduction is disabled then).
    """

    node_budget: int = _DEFAULT_NODE_BUDGET
    time_budget: float | None = None
    symmetry_reduction: bool = False
    parallel_depth: int = 0
    workers: int = 1
    horizon: int | None = None  # None -> 4 * d_star(G)
    stem: Sequence | None = None

    def __post_init__(self):
        if self.node_budget < 1:
            raise InvalidInputError("node_budget must be positive")
        if self.time_budget is not None and self.time_budget <= 0:
            raise InvalidInputError("time_budget must be positive")
        if self.horizon is not None and self.horizon < 1:
            raise InvalidInputError("horizon must be >= 1")
        if self.parallel_depth < 0 or self.workers < 1:
            raise InvalidInputError("bad parallel settings")


@dataclass(frozen=True)
class SearchStats:
    nodes: int
    pruned: int
    seconds: float


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an invariant search.

    ``value`` is set only when the search completed and the invariant is
    finite; ``infinite`` marks a certified failure of finiteness; otherwise
    (budget or horizon exhausted) the value is unknown but ``best_length``
    and ``witness`` carry the longest L-free sequence found.
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


def _layout(L: LengthSet, horizon: int) -> tuple[int, bool, bool, tuple[int, ...]]:
    """(rows, self-closed, at most l terms in row l, banned rows) of the
    packed state for L.

    Candidates are tested at lengths below the horizon, so only members of L
    up to the horizon matter; the top row is always banned when any is.
    """
    if L.kind == "all" or (L.kind == "interval" and L.k >= horizon):
        return 1, True, True, (0,)
    if L.kind == "interval":
        return L.k, False, True, (L.k - 1,)
    mask = L.mask(horizon)
    banned = tuple(l - 1 for l in range(1, horizon + 1) if mask >> l & 1)
    return (banned[-1] + 1 if banned else 0), False, False, banned


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


class _Search:
    """One DFS over the canonical L-free multisets extending a prefix.

    ``run(cap)`` visits them in lexicographic order down to length ``cap``,
    keeping the longest one met first (the lexicographically least of that
    length); with ``collect`` it also records every one of length ``cap``.
    A node of length >= horizon is not expanded and marks the search as cut
    at the horizon.  Every visited node counts against the node budget, the
    root included; reaching it, or passing the deadline, stops the search
    with ``stopped`` set.
    """

    def __init__(self, G, L, horizon, node_budget, deadline, symmetry, prefix):
        table = group_table(G)
        self.table = table
        self.m = m = len(table.elements)
        self.factors = G.factors
        self.horizon = horizon
        self.node_budget = node_budget
        self.deadline = deadline
        rows, closed, at_most, banned = _layout(L, horizon)
        self.rows = rows
        self.full = (1 << rows * m) - 1
        self.step = 0 if closed else m
        self.top = (rows - 1) * m if rows else 0
        self.lower_bans = tuple(r * m for r in banned if r < rows - 1)
        self._moves: list = [None] * m
        self.nodes = 0
        self.pruned = 0
        self.best = -1
        self.best_stack: tuple[int, ...] | None = None
        self.hit_horizon = False
        self.stopped = False
        self.found: list[tuple[int, ...]] = []

        # The empty subsequence sums to 0 with length 0.
        state = self.full // ((1 << m) - 1) if at_most else 1 & self.full
        for gi in prefix:
            if self._banned(state) >> gi & 1:
                raise InvalidInputError("stem has a zero-sum subsequence with length in L")
            state |= (_translate(state, self._move(gi)) << self.step) & self.full
        self.prefix = tuple(prefix)
        self.state = state

        self.span = (1 << m) - 1  # without symmetry every element counts as inside
        self.dim = 0
        self.flag_bits = None
        if symmetry:
            self.sym_n = G.exponent
            self.flag_bits = [1 << G.exponent**j for j in range(G.rank)] + [0]
            self.span = 1  # the zero element
            for gi in prefix:
                if not self.span >> gi & 1:
                    self.span = self._grow(self.span, gi)
                    self.dim += 1

    def _move(self, gi):
        """The translation by -g, built on first use."""
        move = self._moves[gi]
        if move is None:
            coords = self.table.elements[self.table.neg[gi]]
            move = self._moves[gi] = _translation(self.factors, self.rows, coords)
        return move

    def _banned(self, x):
        banned = x >> self.top
        for off in self.lower_bans:
            banned |= (x >> off) & ((1 << self.m) - 1)
        return banned

    def _grow(self, span, gi):
        """The subgroup generated by ``span`` and g, as an |G|-bit int."""
        move = self._move(gi)
        new = cur = span
        for _ in range(self.sym_n - 1):
            cur = _translate(cur, move)
            new |= cur
        return new

    def run(self, cap: int, collect: bool = False) -> None:
        # The state update and banned set below inline _move, _translate
        # and _banned: they run once per node.
        row = (1 << self.m) - 1
        full, step, top, lower = self.full, self.step, self.top, self.lower_bans
        moves = self._moves
        horizon = self.horizon
        flag_bits = self.flag_bits
        found = self.found if collect else None
        budget, deadline = self.node_budget, self.deadline
        nodes, pruned, best, best_stack = self.nodes, self.pruned, self.best, self.best_stack
        hit = self.hit_horizon
        stopped = False
        # Node count at which to look at the budget and the clock next.
        check = budget if deadline is None else min(budget, nodes - nodes % 4096 + 4096)

        base = len(self.prefix)
        seq = list(self.prefix) + [0] * max(cap - base, 0)
        frames: list[list] = []  # per expanded node: [state, unvisited children, span, dim]
        y, span, dim = self.state, self.span, self.dim
        start = self.prefix[-1] if base else 0
        depth = base
        while True:
            # Visit the node seq[:depth] with state y.
            nodes += 1
            if nodes >= check:
                if nodes >= budget or time.monotonic() > deadline:
                    stopped = True
                    break
                check = min(budget, nodes + 4096)
            if depth > best:
                best = depth
                best_stack = tuple(seq[:depth])
            if depth >= cap:
                if depth >= horizon:
                    hit = True
                if found is not None:
                    found.append(tuple(seq[:depth]))
            else:
                banned = y >> top
                for off in lower:
                    banned |= (y >> off) & row
                banned >>= start
                pruned += banned.bit_count()
                avail = ((row >> start) ^ banned) << start
                if flag_bits is not None:
                    avail &= span | flag_bits[dim]
                if avail:
                    frames.append([y, avail, span, dim])

            # Move to the next unvisited child of the deepest open node.
            while frames:
                frame = frames[-1]
                avail = frame[1]
                if avail:
                    break
                frames.pop()
            else:
                break
            low = avail & -avail
            frame[1] = avail ^ low
            start = low.bit_length() - 1
            depth = base + len(frames)
            seq[depth - 1] = start
            x = frame[0]
            move = moves[start]
            if move is None:
                move = self._move(start)
            y = x
            for lo, hi, up, down in move:
                y = ((y & lo) << up) | ((y & hi) >> down)
            y = x | ((y << step) & full)
            span, dim = frame[2], frame[3]
            if flag_bits is not None and not span >> start & 1:
                span = self._grow(span, start)
                dim += 1

        self.nodes, self.pruned, self.best, self.best_stack = nodes, pruned, best, best_stack
        self.hit_horizon = hit
        self.stopped = stopped


def _effective_horizon(G: GroupSpec, cfg: SearchConfig) -> int:
    return cfg.horizon if cfg.horizon is not None else max(4 * d_star(G), 1)


def _symmetry_applicable(G: GroupSpec, cfg: SearchConfig) -> bool:
    # Flag forcing relies on the stabilizer acting transitively outside the
    # span, which holds when the coordinate ring is a field: prime exponent.
    if not cfg.symmetry_reduction or cfg.stem is not None:
        return False
    return G.is_homocyclic() and is_prime(G.exponent)


def _stem_indices(G: GroupSpec, stem: Sequence | None) -> tuple[int, ...]:
    if stem is None:
        return ()
    if stem.group != G:
        raise InvalidInputError("stem is over a different group")
    index = group_table(G).index
    return tuple(index[g.coords] for g in stem.expand())


def _deadline(cfg: SearchConfig) -> float | None:
    return time.monotonic() + cfg.time_budget if cfg.time_budget else None


def _search_below(G, L, horizon, node_budget, deadline, symmetry, prefix):
    """Maximize below ``prefix``: (best, best stack, nodes, pruned, stopped,
    hit horizon).  Runs in pool workers too, so its arguments pickle."""
    search = _Search(G, L, horizon, node_budget, deadline, symmetry, prefix)
    search.run(horizon)
    return (search.best, search.best_stack, search.nodes, search.pruned,
            search.stopped, search.hit_horizon)


def _run_partitioned(G, L, cfg, horizon, symmetry):
    """Split the DFS tree at a fixed depth into independent subtasks.

    Outcomes merge in tree order, so ties keep the serial witness, and the
    subtasks share the node budget as if run one after another: a pool
    result that would not fit in what is left is searched again with exactly
    that budget.  The outcome does not depend on scheduling or worker count.
    """
    deadline = _deadline(cfg)
    prefix = _stem_indices(G, cfg.stem)
    split = _Search(G, L, horizon, cfg.node_budget, deadline, symmetry, prefix)
    split.run(min(len(prefix) + cfg.parallel_depth, horizon), collect=True)
    best, best_stack = split.best, split.best_stack
    nodes, pruned = split.nodes, split.pruned
    stopped, hit_horizon = split.stopped, split.hit_horizon
    if stopped or not split.found:
        # Cut during the partition phase, or the whole tree is shallower
        # than the partition depth: that search is the answer.
        return best, best_stack, nodes, pruned, stopped, hit_horizon
    futures = [None] * len(split.found)
    pool = ProcessPoolExecutor(max_workers=cfg.workers) if cfg.workers > 1 else None
    try:
        if pool is not None:
            futures = [pool.submit(_search_below, G, L, horizon, cfg.node_budget - nodes,
                                   deadline, symmetry, pfx) for pfx in split.found]
        for pfx, future in zip(split.found, futures):
            left = cfg.node_budget - nodes
            outcome = future.result() if future is not None else None
            if outcome is None or outcome[2] >= left:
                outcome = _search_below(G, L, horizon, left, deadline, symmetry, pfx)
            sub_best, sub_stack, sub_nodes, sub_pruned, sub_stopped, sub_hit = outcome
            if sub_best > best:
                best, best_stack = sub_best, sub_stack
            nodes += sub_nodes
            pruned += sub_pruned
            hit_horizon = hit_horizon or sub_hit
            if sub_stopped:
                stopped = True
                break
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return best, best_stack, nodes, pruned, stopped, hit_horizon


def _sequence_from_indices(G: GroupSpec, indices) -> Sequence:
    table = group_table(G)
    return Sequence.from_elements(G, (table.element(i) for i in indices))


def s_L(G: GroupSpec, L: LengthSet, cfg: SearchConfig | None = None) -> SearchResult:
    """Compute s_L(G) by exhaustive search.

    For interval L = [1, k] with k < exp(G), powers of a maximal-order
    element are L-free at every length, so the result is certified infinite
    without searching.  For other L the search runs to the configured
    horizon and reports unknown if any branch was cut there.  With a stem,
    the value reported is 1 + the longest L-free extension of the stem.
    """
    cfg = cfg or SearchConfig()
    t0 = time.monotonic()
    if L.kind == "interval" and L.k < G.exponent:
        return SearchResult(G, L, None, True, True, None, None,
                            SearchStats(0, 0, time.monotonic() - t0))
    horizon = _effective_horizon(G, cfg)
    symmetry = _symmetry_applicable(G, cfg)

    if cfg.parallel_depth > 0:
        outcome = _run_partitioned(G, L, cfg, horizon, symmetry)
    else:
        outcome = _search_below(G, L, horizon, cfg.node_budget, _deadline(cfg), symmetry,
                                _stem_indices(G, cfg.stem))
    best, best_stack, nodes, pruned, stopped, hit_horizon = outcome

    seconds = time.monotonic() - t0
    complete = not stopped and not hit_horizon
    witness = _sequence_from_indices(G, best_stack) if best_stack is not None else None
    value = best + 1 if complete and best >= 0 else None
    best_length = best if best >= 0 else None
    return SearchResult(G, L, value, False, complete, witness, best_length,
                        SearchStats(nodes, pruned, seconds))


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
    optionally reduced to lexicographically-least orbit representatives."""
    if length < 0:
        raise InvalidInputError("length must be >= 0")
    if up_to_automorphism:
        _invertible_matrices(G)  # refuses an unsupported G before the search
    cfg = cfg or SearchConfig()
    search = _Search(G, L, max(length, 1), cfg.node_budget, _deadline(cfg), False,
                     _stem_indices(G, cfg.stem))
    search.run(length, collect=True)
    seqs = [_sequence_from_indices(G, idx) for idx in search.found]
    if up_to_automorphism:
        seqs = [S for S in seqs if orbit_canonical(S) == S]
    return ExtremalSet(G, L, length, tuple(seqs), up_to_automorphism, not search.stopped)


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
