"""Exhaustive-search invariants cross-validated against multiset brute force."""

import concurrent.futures
import dataclasses
import itertools
import math
import multiprocessing
import os
import select
import signal
import time
from concurrent.futures import Future

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from zerosum import (
    InvalidInputError,
    LengthSet,
    Sequence,
    SearchConfig,
    ResourceLimitError,
    davenport,
    enumerate_extremal,
    enumerate_minimal_zero_sum,
    eta,
    feasibility,
    known_s_leq,
    make_group,
    min_zero_sum_length,
    orbit_canonical,
    s_L,
    s_egz,
    s_kexp,
    s_leq,
    sigma,
)
from zerosum import search
from zerosum.groups import automorphism_permutations, d_star, group_table, is_prime, orbit_minima
from zerosum.search import (
    _dfs,
    _layout,
    _multiplicity_caps,
    _orderly_children,
    _run_partitioned,
    _search_limit,
    _sequence_from_indices,
    _translate,
    _translation,
)

from conftest import (
    all_elements,
    apply_matrix,
    brute_davenport,
    brute_automorphism_maps,
    brute_flag_count,
    brute_has_zero_sum,
    brute_invertible_matrices,
    brute_min_zero_sum,
    brute_obeys_flag,
    brute_s_L,
    brute_s_leq,
    factor_chains,
)

C32 = make_group([3, 3])
C23 = make_group([2, 2, 2])


class TestOracleEquivalence:
    @pytest.mark.parametrize(
        "factors,k",
        [
            ([2, 2], 2),
            ([3], 3),
            ([4], 4),
            ([2, 4], 4),
            ([2, 2, 2], 2),
            ([2, 2, 2], 3),
            ([3, 3], 3),
            ([3, 3], 4),
            ([3, 3], 5),
        ],
    )
    def test_s_leq_matches_brute(self, factors, k):
        result = s_leq(make_group(factors), k)
        assert result.complete and not result.infinite
        assert result.value == brute_s_leq(factors, k)

    @pytest.mark.parametrize("factors", [[2, 2], [3], [5], [2, 4], [2, 2, 2], [3, 3]])
    def test_davenport_matches_brute(self, factors):
        result = davenport(make_group(factors))
        assert result.complete
        assert result.value == brute_davenport(factors)

    @pytest.mark.parametrize("factors", [[2, 2], [3], [2, 4], [3, 3]])
    def test_eta_matches_brute(self, factors):
        G = make_group(factors)
        result = eta(G)
        assert result.value == brute_s_L(factors, lambda n: range(1, G.exponent + 1))

    @pytest.mark.parametrize("factors,expected", [([2, 2], 5), ([3], 5), ([5], 9), ([3, 3], 9)])
    def test_egz_matches_brute(self, factors, expected):
        G = make_group(factors)
        result = s_egz(G)
        assert result.value == brute_s_L(factors, lambda n: [G.exponent], cap=expected + 1)
        # classical value 2n - 1 for cyclic, and the known 9 for C_3^2
        assert result.value == expected

    def test_s_kexp_matches_brute(self):
        G = make_group([2, 2])
        result = s_kexp(G, 2)
        assert result.value == brute_s_L([2, 2], lambda n: [4], cap=8)

    def test_explicit_length_set(self):
        result = s_L(C32, LengthSet.of([2, 3]))
        assert result.complete
        assert result.value == brute_s_L([3, 3], lambda n: [2, 3], cap=8)


class TestWitness:
    @pytest.mark.parametrize("factors,k", [([3, 3], 3), ([2, 2, 2], 2), ([2, 4], 4)])
    def test_witness_is_maximal_free_sequence(self, factors, k):
        G = make_group(factors)
        result = s_leq(G, k)
        W = result.witness
        assert W is not None
        assert W.length == result.value - 1 == result.best_length
        coords = [g.coords for g in W.expand()]
        assert not brute_has_zero_sum(coords, range(1, k + 1), tuple(factors))

    def test_davenport_witness_zero_sum_free(self):
        result = davenport(C32)
        coords = [g.coords for g in result.witness.expand()]
        assert brute_min_zero_sum(coords, (3, 3)) is None


class TestCertifiedInfinite:
    def test_interval_below_exponent(self):
        result = s_leq(make_group([3]), 2)
        assert result.infinite and result.complete and result.value is None
        assert result.value_label() == "infinite"

    def test_interval_at_exponent_finite(self):
        assert not eta(make_group([3])).infinite

    @pytest.mark.parametrize("factors,lengths", [([3], [2]), ([4], [2]), ([6], [2, 3])])
    def test_no_multiple_of_exponent_is_infinite(self, factors, lengths):
        # Copies of an element of order exp(G) avoid every length in L.
        result = s_L(make_group(factors), LengthSet.of(lengths))
        assert result.infinite and result.complete and result.value is None
        assert result.stats.nodes == 0

    @pytest.mark.parametrize("factors,lengths,value", [([6], [2, 3, 6], 8), ([3, 3], [2, 3], 8)])
    def test_some_multiple_of_exponent_is_finite(self, factors, lengths, value):
        result = s_L(make_group(factors), LengthSet.of(lengths))
        assert not result.infinite and result.complete and result.value == value


class TestBudgets:
    def test_node_budget_exhaustion(self):
        result = s_leq(C32, 3, SearchConfig(node_budget=5))
        assert not result.complete
        assert result.value is None
        assert result.best_length is not None
        assert result.value_label() == "unknown"

    def test_deep_tree_does_not_recurse(self):
        result = davenport(make_group([1500]), SearchConfig(node_budget=5000))
        assert not result.complete and result.best_length == 1499

    def test_budget_bounds_memory_on_a_large_group(self):
        # The search limit of C100000 is about 5 * 10^9 terms; nothing is
        # sized by it, so a budgeted search stops at once.
        G = make_group([100_000])
        assert _search_limit(G, LengthSet.all_positive()) > 10**9
        result = davenport(G, SearchConfig(node_budget=1000))
        assert (result.complete, result.best_length, result.stats.nodes) == (False, 999, 1000)

    @pytest.mark.parametrize(
        "factors,L,budget,complete,best_length",
        [
            # D(C2) = 2: the root and the one element are the whole tree.
            ([2], LengthSet.all_positive(), 2, True, 1),
            # s_<=3(C3^2) = 7 takes 13 nodes.
            ([3, 3], LengthSet.up_to(3), 13, True, 6),
            ([3, 3], LengthSet.up_to(3), 12, False, 6),
            # A budget of 1 examines the root.
            ([3, 3], LengthSet.all_positive(), 1, False, 0),
        ],
    )
    def test_budget_counts_only_examined_nodes(self, factors, L, budget, complete, best_length):
        result = s_L(make_group(factors), L, SearchConfig(node_budget=budget))
        assert (result.complete, result.best_length, result.stats.nodes) == \
            (complete, best_length, budget)

    @pytest.mark.parametrize("budget", [5_000, 46_199, 46_200, 50_000])
    def test_partitioned_budget_bounds_total_nodes(self, budget):
        # The whole C3^3 s_<=4 tree with orbit-minimum roots split at depth
        # 2 takes 46,200 nodes in 25 subtasks.  (s_leq runs it orderly, in
        # 1,620 nodes and 2 subtasks.)
        G, L = make_group([3, 3, 3]), LengthSet.up_to(4)
        one, two = (unrestricted(G, L, SearchConfig(node_budget=budget, parallel_depth=2,
                                                     workers=workers), "roots")
                    for workers in (1, 2))
        for outcome in (one, two):
            assert outcome.stopped == (budget < 46_200)
            assert outcome.nodes == min(budget, 46_200)
        assert (one.best_stack, one.pruned, one.stopped) == \
            (two.best_stack, two.pruned, two.stopped)

    def test_workers_alone_split_at_depth_two(self):
        # workers > 1 with no parallel_depth splits at depth 2, the same
        # tree as parallel_depth=2, whether s_L is called from the CLI or not.
        # C2^2xC6 s_<=6 runs orderly: 10 subtasks at depth 2.
        G = make_group([2, 2, 6])
        pooled = s_leq(G, 6, SearchConfig(workers=2))
        split = s_leq(G, 6, SearchConfig(parallel_depth=2))
        assert pooled.value == split.value == 10
        assert pooled.witness == split.witness
        assert pooled.stats.nodes == split.stats.nodes == 2_501

    def test_partition_phase_cut_spends_only_the_budget(self):
        result = s_leq(make_group([3, 3, 3]), 4, SearchConfig(node_budget=30, parallel_depth=2))
        assert not result.complete
        assert result.stats.nodes == 30

    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            SearchConfig(node_budget=0)
        with pytest.raises(InvalidInputError):
            SearchConfig(node_budget=float("nan"))
        with pytest.raises(InvalidInputError):
            SearchConfig(time_budget=0)
        with pytest.raises(InvalidInputError):
            SearchConfig(time_budget=float("nan"))
        with pytest.raises(InvalidInputError):
            SearchConfig(workers=0)
        for bad in ({"parallel_depth": 1.5}, {"workers": 2.0}):
            with pytest.raises(InvalidInputError, match="must be integers"):
                SearchConfig(**bad)
        with pytest.raises(InvalidInputError, match="must be an integer"):
            s_leq(C32, 1.5)

    def test_s_kexp_requires_positive_k(self):
        with pytest.raises(InvalidInputError):
            s_kexp(C32, 0)


class TestStateLayout:
    """(value, witness, nodes, pruned) for each branch of the packed state
    layout.  Values and witnesses were recorded with the per-element
    length-mask kernel it replaced; the counts off the self-closed row are
    those of the multiplicity-cap bound, and on it those of the
    transposition table, both under orderly generation to depth 4 on C3^2
    and C2xC4, rooted at 0 when exp(G) divides every member of L."""

    @pytest.mark.parametrize(
        "run,expected",
        [
            # L = N: one self-closed row.
            (lambda: davenport(C32), (5, "0,1^2; 1,0^2", 8, 25)),
            # Interval [1,k] below the limit: k rows of "at most l terms".
            (lambda: s_leq(C32, 3), (7, "0,1^2; 1,0^2; 1,1^2", 13, 33)),
            (lambda: s_leq(make_group([2, 4]), 4), (6, "0,1^3; 1,0^1; 1,1^1", 21, 47)),
            # Interval reaching the limit (16 on C3^2: eight elements of
            # order 3, two copies each) collapses to the self-closed row.
            (lambda: s_leq(C32, 16), (5, "0,1^2; 1,0^2", 8, 25)),
            # Singleton and explicit sets: rows of exactly l terms.
            (lambda: s_egz(C32), (9, "0,0^2; 0,1^2; 1,0^2; 1,1^2", 49, 101)),
            (lambda: s_L(C32, LengthSet.of([3, 6])), (7, "0,0^2; 0,1^2; 1,0^2", 39, 98)),
            # A singleton above the exponent, searched to the limit:
            # s_{kn}(C_n^2) = kn + 2n - 2.
            (lambda: s_L(C32, LengthSet.exactly(6)), (10, "0,0^5; 0,1^2; 1,0^2", 1228, 2312)),
        ],
    )
    def test_pinned_counts(self, run, expected):
        result = run()
        assert (result.value, str(result.witness), result.stats.nodes,
                result.stats.pruned) == expected

    @pytest.mark.parametrize("factors", [[3, 3], [2, 4]])
    @pytest.mark.parametrize("k,split", [(3, None), (5, None), (6, 6), (8, 6), (16, 6), (18, 6)])
    def test_explicit_interval_runs_as_interval(self, factors, k, split):
        # The layout reads only the members of L up to the depth searched:
        # {1, ..., k} and [1, k] get the same rows, below the limit and at
        # or above it (the limit is 16 on C3^2 and 15 on C2xC4), serially
        # or split at a depth.
        G = make_group(factors)
        cfg = SearchConfig(parallel_depth=split or 0)
        explicit = s_L(G, LengthSet.of(range(1, k + 1)), cfg)
        interval = s_L(G, LengthSet.up_to(k), cfg)
        assert (explicit.value, explicit.witness, explicit.stats.nodes,
                explicit.stats.pruned) == (interval.value, interval.witness,
                                           interval.stats.nodes, interval.stats.pruned)

    @pytest.mark.parametrize("L,expected", [
        (LengthSet.all_positive(), (1, True, True, (0,))),
        (LengthSet.up_to(4), (4, False, True, (3,))),
        (LengthSet.of([1, 2, 3]), (3, False, True, (2,))),
        (LengthSet.of([3, 6]), (6, False, False, (2, 5))),
    ], ids=lambda v: v.label() if isinstance(v, LengthSet) else "")
    def test_layout_cost_does_not_grow_with_the_depth(self, L, expected):
        # A search limit can run to billions of terms; the layout is read
        # from L's kind and members, never from a mask that long.
        assert _layout(L, 10**15) == expected

    @given(st.data())
    def test_masked_rotation_matches_add_row(self, data):
        G = make_group(data.draw(st.lists(st.integers(2, 6), min_size=1, max_size=3)))
        assume(G.order <= 72)
        table = group_table(G)
        m = G.order
        subsets = data.draw(st.lists(st.sets(st.integers(0, m - 1)), min_size=1, max_size=3))
        gi = data.draw(st.integers(0, m - 1))
        add = table.add_row(gi)

        def pack(rows):
            return sum(sum(1 << s for s in row) << (r * m) for r, row in enumerate(rows))

        moved = _translate(pack(subsets), _translation(G.factors, len(subsets), table.elements[gi]))
        assert moved == pack([{add[s] for s in row} for row in subsets])


class TestDeterminismAndModes:
    def test_symmetry_reduction_same_value(self):
        for k in (2, 3):
            plain = s_leq(C23, k)
            reduced = s_leq(C23, k, SearchConfig(symmetry_reduction=True))
            assert plain.value == reduced.value
        plain = s_leq(C32, 4)
        reduced = s_leq(C32, 4, SearchConfig(symmetry_reduction=True))
        assert plain.value == reduced.value

    def test_parallel_same_value_and_witness(self):
        serial = s_leq(C32, 3)
        par = s_leq(C32, 3, SearchConfig(parallel_depth=2, workers=2))
        assert par.value == serial.value
        assert par.witness == serial.witness

    def test_repeat_runs_identical(self):
        a = s_leq(C32, 4)
        b = s_leq(C32, 4)
        assert (a.value, a.witness) == (b.value, b.witness)


def bound_cases():
    """(factors, L, split) over seven small groups.  L runs over one-row and
    two-row intervals, an interval, explicit sets and {exp}; an L with no
    multiple of exp(G) is certified infinite before any search.  C2xC6 is
    here because {3,6} on it is where a cap one too small changes the
    witness.  Each runs serially (split None) and split at depth 6."""
    for factors in ([3, 3], [2, 4], [2, 2, 2], [6], [4, 4], [3, 6], [2, 6]):
        for L in (LengthSet.of([1]), LengthSet.of([1, 2]), LengthSet.up_to(3),
                  LengthSet.of([2, 4]), LengthSet.exactly(max(factors)), LengthSet.of([3, 6])):
            for split in (None, 6):
                yield pytest.param(factors, L, split, id=f"{factors}-{L.label()}-{split}")


class TestBound:
    """The multiplicity-cap bound drops only subtrees that cannot beat the
    best length found, so the maximization keeps the value and the
    lexicographically least witness of the collect path, which never
    applies the bound; split into subtasks, each starting from its own
    best, too."""

    @pytest.mark.parametrize("factors,L,split", bound_cases())
    def test_matches_unbounded_collect(self, factors, L, split):
        G = make_group(factors)
        result = s_L(G, L, SearchConfig(parallel_depth=split or 0))
        if not L.has_multiple_of(G.exponent):
            assert result.infinite and result.stats.nodes == 0
            return
        assert result.complete
        longest = enumerate_extremal(G, L, result.best_length)
        assert longest.complete and result.witness == longest.sequences[0]
        assert enumerate_extremal(G, L, result.value).sequences == ()
        # The oracle scans every multiset of length s_L; C4^2 and C3xC6
        # have millions.
        if math.comb(G.order + result.value - 1, result.value) <= 25_000:
            assert result.value == brute_s_L(factors, lambda n: [l for l in range(1, n + 1)
                                                                 if l in L])

    @pytest.mark.parametrize("G,L", [(make_group([4, 4]), LengthSet.up_to(4)),
                                     (make_group([3, 3, 3]), LengthSet.exactly(3))], ids=str)
    def test_independent_of_workers(self, G, L):
        # Subtasks start from their own best, never a sibling's.
        runs = {}
        for workers in (1, 2):
            for depth in (0, 1, 2, 3):
                result = s_L(G, L, SearchConfig(symmetry_reduction=True, workers=workers,
                                                parallel_depth=depth))
                split = depth or (2 if workers > 1 else 0)
                runs.setdefault(split, []).append(result)
        serial = runs[0][0]
        for split, results in runs.items():
            for result in results:
                assert (result.value, result.witness) == (serial.value, serial.witness)
            assert len({result.stats.nodes for result in results}) == 1, split


def root_restricted_cases(max_order):
    """(factors, L) for each chain of order <= max_order: L = N, [1,k] for k
    in [exp, D*-1], and {exp}.  On cyclic groups {n} is kept to n <= 10: the
    unrestricted search for C12 already takes 2.8M nodes, and it grows fast
    with n."""
    cases = []
    for factors in factor_chains(max_order):
        G = make_group(factors)
        n = G.exponent
        cases.append((factors, LengthSet.all_positive()))
        cases += [(factors, LengthSet.up_to(k)) for k in range(n, d_star(G))]
        if G.rank > 1 or n <= 10:
            cases.append((factors, LengthSet.exactly(n)))
    return cases


def unrestricted(G, L, cfg, symmetry=None):
    """The maximization split as ``cfg`` asks, with the root's children
    restricted by ``symmetry`` alone; with None, over every first term: the
    reference for the first-term restrictions every search uses."""
    limit = _search_limit(G, L)
    if cfg.parallel_depth:
        return _run_partitioned(G, L, cfg, cfg.parallel_depth, limit, symmetry)
    return _dfs(G, L, cfg.node_budget, None, symmetry, (), limit)


def expected_symmetry(G, L, flag=False):
    """The label a search reports: the flag trick, orderly generation on
    groups with a permutation table, else orbit-minimum roots; with
    "+translation", or "translation" alone for roots, when exp(G) divides
    every member of L."""
    rule = "flag" if flag else "orderly" if automorphism_permutations(G) else "roots"
    if L.kind == "explicit" and all(l % G.exponent == 0 for l in L.members):
        return "translation" if rule == "roots" else rule + "+translation"
    return rule


def assert_same_as_unrestricted(G, result, reference):
    complete = not reference.stopped
    assert (result.value, result.witness, result.complete, result.best_length) == (
        reference.best + 1 if complete else None,
        _sequence_from_indices(G, reference.best_stack), complete, reference.best)
    assert result.stats.nodes <= reference.nodes


class TestRootRestriction:
    """Every search without the flag trick restricts the first term to
    Aut(G)-orbit minima, or to 0 when exp(G) divides every member of L, and
    keeps the value, witness, completeness and best length of the search
    over every first term, in no more nodes."""

    @pytest.mark.parametrize("factors,L", root_restricted_cases(16), ids=str)
    def test_same_answer_as_plain_search(self, factors, L):
        G = make_group(factors)
        reference = unrestricted(G, L, SearchConfig())
        assert not reference.stopped
        result = s_L(G, L)
        assert_same_as_unrestricted(G, result, reference)
        # The only explicit L here is {exp}: rooted at 0.
        assert result.stats.symmetry == expected_symmetry(G, L)

    @pytest.mark.parametrize("factors", factor_chains(24), ids=str)
    def test_grid_matches_unrestricted(self, factors):
        # Every L of root_restricted_cases and {exp, 2 exp}, serially and
        # split at depth 2.  Cases the unrestricted search does not finish
        # within the budget are skipped.
        G = make_group(factors)
        n = G.exponent
        lengths = [LengthSet.all_positive(), LengthSet.exactly(n), LengthSet.of([n, 2 * n])]
        lengths += [LengthSet.up_to(k) for k in range(n, d_star(G))]
        for L in lengths:
            for depth in (0, 2):
                cfg = SearchConfig(node_budget=20_000, parallel_depth=depth)
                reference = unrestricted(G, L, cfg)
                if not reference.stopped:
                    result = s_L(G, L, cfg)
                    assert_same_as_unrestricted(G, result, reference)
                    assert result.stats.symmetry == expected_symmetry(G, L)

    def test_fewer_nodes(self):
        # C4^2 has three orbits: 0, the elements of order 4, those of order
        # 2.  Orderly generation cuts deeper prefixes too.
        G = make_group([4, 4])
        L = LengthSet.up_to(4)
        assert unrestricted(G, L, SearchConfig()).nodes == 3921
        assert unrestricted(G, L, SearchConfig(), "roots").nodes == 1514
        assert s_L(G, L).stats.nodes == 187

    @pytest.mark.parametrize("factors", [[2, 6], [4, 4]])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_partitioned_matches_serial(self, factors, workers):
        G = make_group(factors)
        for L in (LengthSet.all_positive(), LengthSet.up_to(G.exponent)):
            serial = s_L(G, L)
            split = s_L(G, L, SearchConfig(parallel_depth=2, workers=workers))
            assert (split.value, split.witness, split.complete) == (
                serial.value, serial.witness, serial.complete)


def multiple_of_exp_lengths(n):
    """L whose members are all multiples of exp(G) = n."""
    return (LengthSet.exactly(n), LengthSet.exactly(2 * n), LengthSet.of([n, 2 * n]),
            LengthSet.exactly(3 * n))


class TestTranslation:
    """When exp(G) divides every member of L, S - g is L-free whenever S
    is.  Translating a longest L-free sequence by minus its first term puts
    0, index 0, first, so the lexicographically least one starts with 0; the
    flag trick's images come from linear maps, which fix 0, so the least
    one of the flag tree does too.  Every such search roots at 0 and keeps
    the value, witness, completeness and best length of the search with
    orbit-minimum first terms (or the flag mask alone), in no more nodes."""

    @pytest.mark.parametrize("factors", factor_chains(24), ids=str)
    def test_grid_matches_roots(self, factors):
        # Serially and split at depth 2, within a budget.  A serial search
        # rooted at 0 is the reference's first subtree, so when the budget
        # cuts the reference, the search rooted at 0 was cut at the same
        # node or had finished with the reference's best.  Split, its
        # subtasks are the reference's first ones with more budget left.
        G = make_group(factors)
        flag = G.is_homocyclic() and is_prime(G.exponent)
        for L in multiple_of_exp_lengths(G.exponent):
            # symmetry_reduction changes nothing off the flag trick's groups.
            for symmetry in (False, True) if flag else (False,):
                for depth in (0, 2):
                    cfg = SearchConfig(node_budget=20_000, symmetry_reduction=symmetry,
                                       parallel_depth=depth)
                    reference = unrestricted(G, L, cfg, "flag" if symmetry else "roots")
                    result = s_L(G, L, cfg)
                    assert result.stats.symmetry == expected_symmetry(G, L, symmetry)
                    if not reference.stopped:
                        assert_same_as_unrestricted(G, result, reference)
                    elif depth == 0:
                        assert (result.witness, result.best_length) == (
                            _sequence_from_indices(G, reference.best_stack), reference.best)
                        assert result.stats.nodes <= reference.nodes
                    else:
                        assert result.best_length >= reference.best

    @pytest.mark.parametrize("symmetry", [False, True])
    @pytest.mark.parametrize("L", multiple_of_exp_lengths(2), ids=LengthSet.label)
    def test_pool_matches_roots(self, L, symmetry):
        G = make_group([2, 2, 2])
        cfg = SearchConfig(node_budget=20_000, symmetry_reduction=symmetry, parallel_depth=2)
        reference = unrestricted(G, L, cfg, "flag" if symmetry else "roots")
        assert not reference.stopped
        pooled = s_L(G, L, dataclasses.replace(cfg, workers=2))
        assert_same_as_unrestricted(G, pooled, reference)
        assert pooled.stats.nodes == s_L(G, L, cfg).stats.nodes

    @pytest.mark.parametrize("factors,symmetry,reference_nodes,nodes", [
        ([3, 3, 3], True, 54_637, 14_449),
        ([2, 2, 4], False, 48_903, 4_695),
        ([4, 4], False, 40_970, 4_193),
    ], ids=str)
    def test_pinned_counts(self, factors, symmetry, reference_nodes, nodes):
        # s_egz, against the flag mask alone or the orbit-minimum roots;
        # C2^2xC4 and C4^2 run orderly+translation.
        G = make_group(factors)
        L = LengthSet.exactly(G.exponent)
        reference = unrestricted(G, L, SearchConfig(), "flag" if symmetry else "roots")
        result = s_L(G, L, SearchConfig(symmetry_reduction=symmetry))
        assert (reference.nodes, result.stats.nodes) == (reference_nodes, nodes)
        assert result.witness == _sequence_from_indices(G, reference.best_stack)

    @pytest.mark.parametrize("L,length,counts", [
        (LengthSet.exactly(3), 4, (306, 12)),
        (LengthSet.exactly(3), 8, (54, 3)),
        (LengthSet.of([3, 6]), 6, (288, 9)),
    ], ids=str)
    def test_enumeration_keeps_its_rule(self, L, length, counts):
        # Translation does not preserve orbit representatives, so
        # enumerate_extremal lists every sequence, or every orbit-least one,
        # whatever its first term: at length 8 two of the three
        # representatives for {3} do not contain 0.
        full = enumerate_extremal(C32, L, length)
        reduced = enumerate_extremal(C32, L, length, up_to_automorphism=True)
        assert (len(full.sequences), len(reduced.sequences)) == counts
        assert reduced.sequences == tuple(S for S in full.sequences if orbit_canonical(S) == S)
        assert not all(S.terms[0][0].is_zero() for S in full.sequences)


def brute_maps(G):
    """Aut(G) as element-index permutations: on C_n^r read from the
    brute-force matrix list through the coordinates, on other groups from
    the generator-image oracle."""
    if not G.is_homocyclic():
        return list(brute_automorphism_maps(G.factors))
    table = group_table(G)
    n, r = G.exponent, G.rank
    return [[table.index[apply_matrix(M, n, a)] for a in table.elements]
            for M in brute_invertible_matrices(n, r)]


def brute_orbit_least(maps, indices):
    """Whether a sorted index tuple is least among its sorted images."""
    return all(sorted([perm[i] for i in indices]) >= list(indices) for perm in maps)


def scan_children(maps, m, prefix):
    """``_orderly_children`` as one Python pass over (phi, phi^-1) pairs of
    element-index permutations: the per-map reference for its byte lanes.
    Only t >= Q[-1] are decided.

    Per map phi, let A = sorted phi(Q) and i the first index where A != Q
    (A[i] > Q[i], as Q is orbit-least).  With no such i, phi(Q.t) sorts
    below Q.t iff phi(t) < t.  Otherwise it does when phi(t) < Q[i], does
    not when phi(t) > Q[i], and t = phi^-1(Q[i]) is compared directly.
    """
    last, d = prefix[-1], len(prefix)
    q = list(prefix)
    cut = 0
    for perm, inv in maps:
        image = sorted([perm[x] for x in prefix])
        i = 0
        while i < d and image[i] == q[i]:
            i += 1
        if i == d:
            for t in range(last, m):
                if perm[t] < t:
                    cut |= 1 << t
            continue
        v = q[i]
        for u in range(v):
            cut |= 1 << inv[u]
        t = inv[v]
        if t >= last and sorted(image + [v]) < q + [t]:
            cut |= 1 << t
    return ((1 << m) - 1) & ~cut


def table_maps(G):
    """The permutation table's maps as (phi, phi^-1) pairs of index lists."""
    columns = automorphism_permutations(G)
    maps = []
    for perm in zip(*columns):
        inv = [0] * G.order
        for i, j in enumerate(perm):
            inv[j] = i
        maps.append((perm, inv))
    return maps


class TestOrderly:
    """On groups with a permutation table, a node of 1 to 3 terms keeps only
    the children that extend it to a prefix least among its images under
    Aut(G).  The lexicographically least longest L-free sequence is least
    in its orbit, and so is every prefix of it, so each search keeps the
    value, witness, completeness and best length of the search with
    orbit-minimum first terms, in no more nodes."""

    @pytest.mark.parametrize("factors", [[2, 2], [3, 3], [4, 4], [2, 2, 2], [5, 5], [6],
                                         [2, 4], [2, 6], [2, 2, 4]], ids=str)
    def test_children_match_brute_force(self, factors):
        # The orbit minima are the orbit-least prefixes of 1 term; for every
        # orbit-least sorted prefix of 1 to 3 terms, the children kept are
        # the t >= its last term that make one of up to 4 terms.
        G = make_group(factors)
        maps = brute_maps(G)
        m = G.order
        assert orbit_minima(G) == sum(1 << t for t in range(m) if brute_orbit_least(maps, (t,)))
        for d in (1, 2, 3):
            for prefix in itertools.combinations_with_replacement(range(m), d):
                if brute_orbit_least(maps, prefix):
                    kept = _orderly_children(G, prefix)
                    for t in range(prefix[-1], m):
                        assert bool(kept >> t & 1) == brute_orbit_least(maps, prefix + (t,)), \
                            (prefix, t)

    @pytest.mark.parametrize("factors", [[3, 3, 3], [7, 7], [9, 9], [12]], ids=str)
    def test_lanes_match_the_per_map_scan(self, factors):
        # Every orbit-least prefix of 1 to 3 terms reachable from the orbit
        # minima through the scan's children: the byte-lane masks equal the
        # scan's on every decided bit, and leave the bits below Q[-1] clear.
        G = make_group(factors)
        maps, m = table_maps(G), G.order
        level = [(t,) for t in range(m) if orbit_minima(G) >> t & 1]
        for depth in (1, 2, 3):
            children = []
            for prefix in level:
                scan = scan_children(maps, m, prefix)
                assert _orderly_children(G, prefix) == scan & ~((1 << prefix[-1]) - 1), prefix
                children += [prefix + (t,) for t in range(prefix[-1], m) if scan >> t & 1]
            level = children

    @pytest.mark.parametrize("factors", [[2, 2], [3, 3], [2, 2, 2], [6]], ids=str)
    def test_prefixes_of_orbit_least_are_orbit_least(self, factors):
        # Adding terms only lowers the order statistics of an image, so a
        # prefix with an image below it makes the whole sequence have one.
        G = make_group(factors)
        maps = brute_maps(G)
        for seq in itertools.combinations_with_replacement(range(G.order), 4):
            if brute_orbit_least(maps, seq):
                assert all(brute_orbit_least(maps, seq[:d]) for d in (1, 2, 3)), seq

    @pytest.mark.parametrize("factors", [*factor_chains(32), (6, 6)], ids=str)
    def test_grid_matches_roots(self, factors):
        # Every L of root_restricted_cases and multiple_of_exp_lengths,
        # serially and split at depth 2.  Skipped: cases the reference does
        # not finish within the budget, and those where the search runs the
        # reference's own rule (roots, on groups without a table).
        G = make_group(factors)
        n = G.exponent
        lengths = [LengthSet.all_positive(), *(LengthSet.up_to(k) for k in range(n, d_star(G))),
                   *multiple_of_exp_lengths(n)]
        for L in lengths:
            if expected_symmetry(G, L) == "roots":
                continue
            for depth in (0, 2):
                cfg = SearchConfig(node_budget=20_000, parallel_depth=depth)
                reference = unrestricted(G, L, cfg, "roots")
                if not reference.stopped:
                    result = s_L(G, L, cfg)
                    assert_same_as_unrestricted(G, result, reference)
                    assert result.stats.symmetry == expected_symmetry(G, L)

    @pytest.mark.parametrize("factors,k", [
        ((2, 4), 4), ((2, 6), 6), ((2, 8), 8), ((2, 10), 10), ((2, 12), 12), ((3, 6), 6),
        ((3, 6), 7), ((3, 9), 9), ((3, 9), 10), ((2, 2, 4), 4), ((2, 2, 4), 5), ((2, 2, 6), 6),
        ((2, 2, 6), 7),
    ], ids=str)
    def test_scan_rows_match_roots(self, factors, k):
        # Every s_<=k row the order-27 conjecture scan searches on a group
        # that is not homocyclic, all of which have a table: the value,
        # witness and completeness of the orbit-minimum-roots search,
        # serially and split at depth 2.
        G, L = make_group(list(factors)), LengthSet.up_to(k)
        for depth in (0, 2):
            cfg = SearchConfig(parallel_depth=depth)
            result = s_L(G, L, cfg)
            assert result.stats.symmetry == "orderly"
            assert_same_as_unrestricted(G, result, unrestricted(G, L, cfg, "roots"))

    @pytest.mark.parametrize("factors,L,roots_nodes,nodes", [
        # (serial, split at depth 2) node counts.
        ([6, 6], LengthSet.all_positive(), 324_684, (21_854, 27_170)),
        ([5, 5], LengthSet.up_to(5), 29_176, (4_967, 5_022)),
        ([3, 3, 3], LengthSet.up_to(4), 45_812, (1_613, 1_620)),
        ([2, 10], LengthSet.all_positive(), 4_479, (1_228, 1_674)),
        ([3, 9], LengthSet.up_to(9), 64_110, (10_915, 11_112)),
        ([2, 4], LengthSet.up_to(4), 43, (21, 27)),
    ], ids=str)
    def test_pinned_counts(self, factors, L, roots_nodes, nodes):
        # The split counts do not depend on the worker count.
        G = make_group(factors)
        reference = unrestricted(G, L, SearchConfig(), "roots")
        assert reference.nodes == roots_nodes
        serial = s_L(G, L)
        assert_same_as_unrestricted(G, serial, reference)
        for workers in (1, 2):
            split = s_L(G, L, SearchConfig(parallel_depth=2, workers=workers))
            assert (split.value, split.witness, split.complete) == (
                serial.value, serial.witness, serial.complete)
            assert (serial.stats.nodes, split.stats.nodes) == nodes


class TestFlagTrick:
    @pytest.mark.parametrize("factors,nodes", [([3], 25), ([5], 61), ([3, 3], 80),
                                               ([5, 5], 412), ([7, 7], 1400), ([3, 3, 3], 108)],
                             ids=str)
    def test_nodes_with_no_member_of_L_in_the_horizon(self, factors, nodes):
        # L = {2p} bans nothing in the first 4 terms, so a DFS to length 4
        # (its horizon) has a state of zero rows and visits every
        # flag-admissible sorted tuple of at most 4 terms.
        G = make_group(factors)
        outcome = _dfs(G, LengthSet.exactly(2 * G.exponent), 10**6, None, "flag", (), 4,
                       collect=True)
        assert (outcome.stopped, outcome.best) == (False, 4)
        assert outcome.nodes == brute_flag_count(factors, 4) == nodes


def table_cases(max_order, limit=9_000):
    """(factors, L, split depth) for every chain of order <= max_order.
    L = N is split at depth 2 on chains of order <= 20, whose whole trees
    are small, and on C2^5, where the table skips the most (9,149 of its
    114,205 nodes are visited); [1, k] with k at the limit is split at
    depth 2 on C3^2 and C2xC4.  Each depth h in 3..min(7, d*(G)) runs while
    there are at most ``limit`` multisets of h terms for the partition phase
    to collect: L = N for even h, and [1, max(h, exp(G))] for odd h on
    chains of order <= 24.  That k is below the limit except on C2^2, so
    those rows hold the multiplicity-cap bound, not the table, to the same
    oracle."""
    N = LengthSet.all_positive()
    for factors in factor_chains(max_order):
        G = make_group(factors)
        if G.order <= 20 or factors == (2, 2, 2, 2, 2):
            yield pytest.param(factors, N, 2, id=f"{factors}-N")
        for h in range(3, min(7, d_star(G)) + 1):
            if math.comb(G.order + h - 1, h) > limit:
                break
            if h % 2 == 0:
                yield pytest.param(factors, N, h, id=f"{factors}-N-{h}")
            elif G.order <= 24:
                L = LengthSet.up_to(max(h, G.exponent))
                yield pytest.param(factors, L, h, id=f"{factors}-{L.label()}-{h}")
    for factors, k in (((3, 3), 16), ((2, 4), 15)):
        yield pytest.param(factors, LengthSet.up_to(k), 2, id=f"{factors}-[1,{k}]")


class TestTranspositionTable:
    """On the self-closed layout the DFS skips a subtree whose (last term,
    state) it has already searched, when that cannot beat the best length.
    The value, witness and completeness stay those of the collect path,
    which never uses the table, serially and in subtasks with a table
    each."""

    @pytest.mark.parametrize("factors,L,split", table_cases(36))
    def test_matches_collect(self, factors, L, split):
        G = make_group(factors)
        flag = G.is_homocyclic() and is_prime(G.exponent)
        expected = {}
        # symmetry_reduction changes nothing off the flag trick's groups.
        for symmetry in (False, True) if flag else (False,):
            runs = [s_L(G, L, SearchConfig(symmetry_reduction=symmetry,
                                           parallel_depth=depth, workers=workers))
                    for depth, workers in ((0, 1), (split, 1), (split, 2))]
            serial = runs[0]
            for result in runs:
                assert (result.value, result.witness, result.complete, result.best_length) == (
                    serial.value, serial.witness, serial.complete, serial.best_length)
            assert runs[1].stats.nodes == runs[2].stats.nodes
            if not expected:
                longest = enumerate_extremal(G, L, serial.best_length).sequences
                expected[False] = longest[0]
                if flag:
                    # The flag trick keeps the least sequence that obeys the flag rule.
                    expected[True] = next(S for S in longest if brute_obeys_flag(
                        [g.coords for g in S.expand()], factors))
                assert serial.complete
                assert enumerate_extremal(G, L, serial.value).sequences == ()
            assert serial.witness == expected[symmetry]

    @pytest.mark.parametrize("factors,cfg,nodes", [
        # With every first term: 114,205 and 24,643 nodes without the table,
        # 9,149 and 9,611 with it (C3^2 is pinned in TestStateLayout).  C2^5
        # runs on orbit-minimum roots, C2xC10 orderly (4,479 nodes on roots:
        # TestOrderly.test_pinned_counts).
        ([2, 2, 2, 2, 2], None, 2_228),
        ([2, 10], None, 1_228),
    ], ids=str)
    def test_pinned_counts(self, factors, cfg, nodes):
        result = davenport(make_group(factors), cfg)
        assert result.stats.nodes == nodes

    @pytest.mark.parametrize("factors,cfg,nodes", [
        ([3, 3], SearchConfig(), 8),
        ([5, 5], SearchConfig(), 996),
        ([2, 2, 2, 2, 2], SearchConfig(parallel_depth=2, workers=2), 7_426),
    ], ids=str)
    def test_exact_budget(self, factors, cfg, nodes):
        # The C5^2 and C2^5 searches skip subtrees on table hits (C3^2,
        # under orderly generation, has none).
        G = make_group(factors)
        assert davenport(G, cfg).stats.nodes == nodes
        for budget, complete in ((nodes, True), (nodes - 1, False)):
            result = davenport(G, dataclasses.replace(cfg, node_budget=budget))
            assert (result.complete, result.stats.nodes) == (complete, budget)


class TestNoHorizon:
    """No L-free sequence is longer than the sum of the multiplicity caps,
    and every search runs to that limit, so only a budget leaves an answer
    unknown.  Rows that a depth cap of 4 d*(G) used to leave unknown are
    exact and equal their closed forms: s_<=2(C2^r) = 2^r and
    s_<=3(C2^r) = 2^(r-1) + 1 (FS10/L69/WZ17), and s_{2}(C2^r) = 2^r + 1,
    since an L-free sequence for L = {2} has distinct terms."""

    @pytest.mark.parametrize("r,L,symmetry,nodes", [
        (5, LengthSet.up_to(2), True, 172),
        (5, LengthSet.up_to(2), False, 467),
        (5, LengthSet.exactly(2), True, 173),
        (5, LengthSet.exactly(2), False, 498),
        (6, LengthSet.up_to(2), True, 684),
        (6, LengthSet.up_to(2), False, 1_955),
        (6, LengthSet.up_to(3), True, 4_720),
    ], ids=lambda v: v.label() if isinstance(v, LengthSet) else str(v))
    def test_closed_forms(self, r, L, symmetry, nodes):
        G = make_group([2] * r)
        expected = known_s_leq(G, L.k).value if L.kind == "interval" else 2 ** G.rank + 1
        serial = s_L(G, L, SearchConfig(symmetry_reduction=symmetry))
        split = s_L(G, L, SearchConfig(symmetry_reduction=symmetry, parallel_depth=2))
        assert (serial.value, serial.complete, serial.stats.nodes) == (expected, True, nodes)
        assert (split.value, split.witness, split.complete) == (expected, serial.witness, True)

    @pytest.mark.parametrize("factors", factor_chains(16), ids=str)
    def test_only_a_budget_stops(self, factors):
        # A search that ends incomplete has spent its whole node budget.
        G = make_group(factors)
        n = G.exponent
        lengths = [LengthSet.all_positive(), LengthSet.exactly(n), LengthSet.exactly(2 * n),
                   LengthSet.of([n, 2 * n])]
        lengths += [LengthSet.up_to(k) for k in range(n, d_star(G))]
        for L in lengths:
            limit = _search_limit(G, L)
            for budget in (40, 5_000):
                for depth in (0, 2):
                    result = s_L(G, L, SearchConfig(node_budget=budget, parallel_depth=depth))
                    assert result.complete or result.stats.nodes == budget
                    assert result.best_length <= limit
                    if result.complete:
                        assert result.value == result.best_length + 1

    def test_caps_read_from_L(self):
        # On C6 (indices = elements): 0 has order 1, 3 order 2, 2 and 4
        # order 3, 1 and 5 order 6.  An explicit L caps each order at its
        # least multiple in L, less one; N caps it at ord - 1.
        C6 = make_group([6])
        assert _multiplicity_caps(C6, LengthSet.of([2, 3, 6])) == (
            (1, 0b001001), (2, 0b010100), (5, 0b100010))
        assert _multiplicity_caps(C6, LengthSet.of([4, 6])) == (
            (3, 0b001001), (5, 0b110110))
        assert _multiplicity_caps(C6, LengthSet.all_positive()) == (
            (1, 0b001000), (2, 0b010100), (5, 0b100010))

    def test_horizon_is_gone(self):
        with pytest.raises(TypeError):
            SearchConfig(horizon=5)


@pytest.fixture
def fresh_pool():
    """Shuts the search's shared pool down before and after the test, so a
    test that replaces ProcessPoolExecutor starts its own pool and leaves
    none behind."""
    search._shutdown_pool()
    yield
    search._shutdown_pool()


def worker_pids():
    return {p.pid for p in multiprocessing.active_children()}


class TestMaskHandOff:
    """Each subtask carries the parent's orderly masks for its group and
    brings back the ones its worker computed, so a second pool on a group
    computes no mask the first one did, under fork and under spawn."""

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_second_pool_computes_no_mask(self, fresh_pool, monkeypatch, method):
        G = make_group([6, 6])
        context = multiprocessing.get_context(method)
        futures = []

        class RecordingExecutor(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, mp_context=context, **kwargs)

            def submit(self, *args):
                futures.append(super().submit(*args))
                return futures[-1]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setitem(search._masks, G, {})
        added, results, pids = [], [], []
        for _ in range(2):
            futures.clear()
            results.append(davenport(G, SearchConfig(workers=2)))
            # Each subtask returns its outcome and the masks it computed.
            added.append(sum(len(future.result()[1]) for future in futures))
            pids.append(worker_pids())
            # The second call's workers start with no mask of their own.
            search._shutdown_pool()
        assert added[0] > 0 and added[1] == 0
        assert pids[0].isdisjoint(pids[1])
        for result in results:
            assert (result.value, result.witness, result.stats.nodes) == \
                (11, results[0].witness, 27_170)


class TestSharedPool:
    """Pooled searches share one pool per process: it outlives each call,
    is replaced when a call needs another size, stopped or failed calls
    leave no work in it, and a dead worker costs nothing but time."""

    G = make_group([3, 3, 3])

    def assert_as_serial(self, result):
        """``result`` is C3^3 s_<=4 as split at depth 2 and searched here."""
        serial = s_leq(self.G, 4, SearchConfig(parallel_depth=2))
        assert (result.value, result.witness, result.stats.nodes, result.stats.pruned) == \
            (serial.value, serial.witness, serial.stats.nodes, serial.stats.pruned)

    def test_two_calls_run_on_the_same_workers(self, slow_pool):
        # Both subtasks of a call wait for each other, so each call keeps
        # both workers busy even where the pool forks its workers one at a
        # time, on demand (Python 3.10, or the spawn start method).
        futures, set_behaviour = slow_pool
        barrier = multiprocessing.get_context("fork").Barrier(2)
        set_behaviour(lambda prefix: barrier.wait(timeout=30))
        first = s_leq(self.G, 4, SearchConfig(workers=2))
        pool, pids = search._pool, worker_pids()
        second = s_leq(self.G, 4, SearchConfig(workers=2))
        assert len(futures) == 4 and search._pool is pool
        assert len(pids) == 2 and worker_pids() == pids
        for result in (first, second):
            assert (result.value, result.stats.nodes) == (10, 1_620)
            self.assert_as_serial(result)

    def test_larger_pool_replaces_the_pool(self, fresh_pool, monkeypatch):
        # C4^2 D splits into 6 subtasks at depth 2.
        G = make_group([4, 4])
        serial = davenport(G, SearchConfig(parallel_depth=2))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(3), raising=False)
        pools = []
        for workers in (2, 3, 3, 2):
            result = davenport(G, SearchConfig(workers=workers))
            assert (result.value, result.witness, result.stats.nodes) == \
                (serial.value, serial.witness, serial.stats.nodes)
            pools.append((search._pool, search._pool_size, frozenset(worker_pids())))
        # A pool of 3 replaces the pool of 2 and serves the next call; a
        # call of 2 workers replaces it in turn.  A replaced pool's workers
        # are gone before the new pool starts.  A pool may fork its workers
        # on demand, so the count of live workers is not pinned.
        assert [size for _, size, _ in pools] == [2, 3, 3, 2]
        assert pools[1][0] is pools[2][0] and pools[1][2] <= pools[2][2]
        for old, new in (pools[0], pools[1]), (pools[2], pools[3]):
            assert new[0] is not old[0] and old[2].isdisjoint(new[2])

    # The benchmark's partitioned queries: (invariant, factors, symmetry)
    # and the split node count.
    PARTITIONED = {
        "c3x3x3-leq4": (lambda G, cfg: s_leq(G, 4, cfg), [3, 3, 3], False, 1_620),
        "c5x5-leq5": (lambda G, cfg: s_leq(G, 5, cfg), [5, 5], False, 5_022),
        "c3x3x3-egz-sym": (s_egz, [3, 3, 3], True, 16_345),
        "c3x3x3x3-dav-sym": (davenport, [3, 3, 3, 3], True, 55_320),
        "c6x6-dav": (davenport, [6, 6], False, 27_170),
    }

    @pytest.mark.parametrize("invariant,factors,symmetry,nodes", PARTITIONED.values(),
                             ids=PARTITIONED)
    def test_workers_one_and_two_agree(self, fresh_pool, invariant, factors, symmetry, nodes):
        G = make_group(factors)
        serial = invariant(G, SearchConfig(symmetry_reduction=symmetry))
        one, two = (invariant(G, SearchConfig(symmetry_reduction=symmetry, parallel_depth=2,
                                              workers=workers)) for workers in (1, 2))
        assert (one.value, one.witness) == (serial.value, serial.witness)
        assert (one.value, one.witness, one.stats.nodes, one.stats.pruned) == \
            (two.value, two.witness, two.stats.nodes, two.stats.pruned)
        assert one.stats.nodes == nodes

    def test_dead_worker_is_searched_here(self, fresh_pool):
        s_leq(self.G, 4, SearchConfig(workers=2))
        victim = multiprocessing.active_children()[0]
        os.kill(victim.pid, signal.SIGKILL)
        # Let the pool see the death, as it would between two real calls
        # (the death of a worker during a call has its own test below).
        give_up = time.monotonic() + 30
        while not search._pool._broken and time.monotonic() < give_up:
            time.sleep(0.01)
        self.assert_as_serial(s_leq(self.G, 4, SearchConfig(workers=2)))
        # The broken pool is gone, and the next call starts a new one.
        assert search._pool is None
        self.assert_as_serial(s_leq(self.G, 4, SearchConfig(workers=2)))
        assert search._pool_size == 2 and victim.pid not in worker_pids()

    def test_forked_child_starts_its_own_pool(self, fresh_pool):
        # A child forked after a pooled search inherits the parent's pool
        # but not the threads that feed it: a pooled search in the child
        # must start a pool of its own rather than wait on that one.
        self.assert_as_serial(s_leq(self.G, 4, SearchConfig(workers=2)))
        pool = search._pool
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                os.close(read)
                result = s_leq(self.G, 4, SearchConfig(workers=2))
                os.write(write, repr((result.value, str(result.witness), result.stats.nodes,
                                      result.stats.pruned)).encode())
                search._shutdown_pool()
                code = 0
            finally:
                os._exit(code)
        os.close(write)
        try:
            ready, _, _ = select.select([read], [], [], 60)
            reply = os.read(read, 1 << 16).decode() if ready else None
        finally:
            os.close(read)
            if not ready:
                os.kill(pid, signal.SIGKILL)
            _, status = os.waitpid(pid, 0)
        assert reply is not None, "the child's pooled search did not return"
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        serial = s_leq(self.G, 4, SearchConfig(parallel_depth=2))
        assert reply == repr((serial.value, str(serial.witness), serial.stats.nodes,
                              serial.stats.pruned))
        # The parent's pool is untouched and serves its next call.
        self.assert_as_serial(s_leq(self.G, 4, SearchConfig(workers=2)))
        assert search._pool is pool

    @pytest.fixture
    def slow_pool(self, fresh_pool, monkeypatch):
        """A fork pool whose workers run ``behave(prefix)`` before each
        subtask; returns the futures the search submits and a setter for
        ``behave``.  Fork copies the patched ``_subtask`` into the workers,
        which find it under its module and name when a task is unpickled."""
        context = multiprocessing.get_context("fork")
        futures, behaviour = [], {}
        real = search._subtask

        def subtask(*args):
            behaviour["behave"](args[5])
            return real(*args)

        subtask.__module__, subtask.__qualname__ = real.__module__, real.__qualname__

        class RecordingExecutor(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, mp_context=context, **kwargs)

            def submit(self, *args):
                futures.append(super().submit(*args))
                return futures[-1]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(search, "_subtask", subtask)
        return futures, lambda behave: behaviour.__setitem__("behave", behave)

    def test_completed_call_keeps_the_pool(self, slow_pool):
        futures, set_behaviour = slow_pool
        set_behaviour(lambda prefix: None)
        self.assert_as_serial(s_leq(self.G, 4, SearchConfig(workers=2)))
        assert len(futures) == 2 and search._pool is not None

    def test_budget_stop_drops_a_busy_pool(self, slow_pool):
        # C3^3 s_<=4 splits into 4 nodes and 2 subtasks of 1,520 and 96
        # nodes: a budget of 800 stops the first while the second sleeps.
        futures, set_behaviour = slow_pool
        set_behaviour(lambda prefix: prefix != (1, 1) and time.sleep(0.5))
        budget = 800
        result = s_leq(self.G, 4, SearchConfig(workers=2, node_budget=budget))
        serial = s_leq(self.G, 4, SearchConfig(parallel_depth=2, node_budget=budget))
        assert not result.complete and result.stats.nodes == budget
        assert (result.best_length, result.witness, result.stats.pruned) == \
            (serial.best_length, serial.witness, serial.stats.pruned)
        assert search._pool is None and all(f.done() for f in futures)

    def test_worker_dying_in_a_call_is_searched_here(self, slow_pool):
        futures, set_behaviour = slow_pool
        set_behaviour(lambda prefix: prefix == (1, 3) and os.kill(os.getpid(), signal.SIGKILL))
        self.assert_as_serial(s_leq(self.G, 4, SearchConfig(workers=2)))
        assert search._pool is None
        assert isinstance(futures[1].exception(), concurrent.futures.process.BrokenProcessPool)

    def test_interrupt_drops_a_busy_pool(self, slow_pool):
        futures, set_behaviour = slow_pool

        def behave(prefix):
            if prefix == (1, 1):
                raise KeyboardInterrupt
            time.sleep(0.5)

        set_behaviour(behave)
        with pytest.raises(KeyboardInterrupt):
            s_leq(self.G, 4, SearchConfig(workers=2))
        assert search._pool is None and all(f.done() for f in futures)


@pytest.fixture
def pool_sizes(fresh_pool, monkeypatch):
    """Replaces ProcessPoolExecutor, which the search imports from
    concurrent.futures when it starts a pool, by a stand-in that runs each
    task in this process, so no pool is ever started; returns the list of
    pool sizes the search asked for."""
    sizes = []

    class InlineExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, wait=True, *, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    return sizes


class TestPoolSize:
    # s_<=6 on orbit-minimum roots (21,504 automorphisms, over the table
    # cap): 86 subtasks at depth 2, 89,530 nodes.
    G = make_group([2, 2, 2, 4])

    @pytest.mark.parametrize("workers,cpus", [(100_000, 3), (2, 64), (100_000, 10**6)])
    def test_at_most_workers_subtasks_and_cpus(self, pool_sizes, monkeypatch, workers, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: range(cpus), raising=False)
        L = LengthSet.up_to(6)
        subtasks = len(_dfs(self.G, L, 10**6, None, "roots", (), 2, collect=True).found)
        assert subtasks == 86
        result = s_L(self.G, L, SearchConfig(workers=workers))
        assert pool_sizes == [min(workers, subtasks, cpus)]
        assert (result.value, result.stats.nodes) == (8, 89_530)

    def test_cpu_count_without_affinity(self, pool_sizes, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        s_leq(self.G, 6, SearchConfig(workers=100_000))
        assert pool_sizes == [5]

    def test_one_usable_cpu_runs_serially(self, pool_sizes, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        result = s_leq(self.G, 6, SearchConfig(workers=4))
        assert pool_sizes == []
        assert (result.value, result.stats.nodes) == (8, 89_530)


class TestSequenceFromIndices:
    @given(st.data())
    def test_matches_from_elements(self, data):
        G = make_group(data.draw(st.lists(st.integers(2, 5), min_size=1, max_size=3)))
        table = group_table(G)
        idx = tuple(sorted(data.draw(st.lists(st.integers(0, G.order - 1), max_size=8))))
        expected = Sequence.from_elements(G, (table.element(i) for i in idx))
        assert _sequence_from_indices(G, idx) == expected


class TestEnumeration:
    def brute_free_multisets(self, G, banned, length):
        from itertools import combinations_with_replacement

        found = set()
        for multiset in combinations_with_replacement(all_elements(G.factors), length):
            if not brute_has_zero_sum(list(multiset), banned, G.factors):
                found.add(tuple(sorted(multiset)))
        return found

    @pytest.mark.parametrize("k,length", [(3, 4), (3, 6), (4, 5)])
    def test_extremal_matches_brute(self, k, length):
        ex = enumerate_extremal(C32, LengthSet.up_to(k), length)
        assert ex.complete
        got = {tuple(sorted(g.coords for g in S.expand())) for S in ex.sequences}
        assert got == self.brute_free_multisets(C32, range(1, k + 1), length)

    def test_extremal_empty_when_beyond_invariant(self):
        # no zero-sum-free sequence of length 5 exists in C_3^2 beyond D-1=4
        ex = enumerate_extremal(C32, LengthSet.all_positive(), 5)
        assert ex.complete and ex.sequences == ()

    def test_extremal_orbit_reduction(self):
        full = enumerate_extremal(C32, LengthSet.up_to(3), 6)
        reduced = enumerate_extremal(C32, LengthSet.up_to(3), 6, up_to_automorphism=True)
        assert 0 < len(reduced.sequences) < len(full.sequences)
        reps = {tuple(sorted(g.coords for g in S.expand())) for S in reduced.sequences}
        assert reps <= {tuple(sorted(g.coords for g in S.expand())) for S in full.sequences}

    def test_extremal_orbit_representatives(self):
        ex = enumerate_extremal(C32, LengthSet.up_to(3), 4, up_to_automorphism=True)
        assert [str(S) for S in ex.sequences] == [
            "0,1^2; 1,0^2", "0,1^2; 1,0^1; 1,1^1", "0,1^2; 1,0^1; 2,1^1"]

    @pytest.mark.parametrize(
        "factors,L,length",
        [([3, 3], LengthSet.all_positive(), 4), ([3, 3], LengthSet.up_to(3), 4),
         ([4, 4], LengthSet.all_positive(), 3), ([2, 2, 2], LengthSet.exactly(2), 4),
         ([6, 6], LengthSet.all_positive(), 2)],
        ids=str)
    def test_orbit_reduction_equals_filtered_enumeration(self, factors, L, length):
        # The reduced enumeration only starts at orbit minima; its output is
        # the full enumeration's orbit-least sequences, order included.
        G = make_group(factors)
        full = enumerate_extremal(G, L, length)
        expected = tuple(S for S in full.sequences if orbit_canonical(S) == S)
        reduced = enumerate_extremal(G, L, length, up_to_automorphism=True)
        assert expected and reduced.complete
        assert reduced.sequences == expected

    def test_orbit_reduction_refused_before_search(self, monkeypatch):
        # C5^3 has more automorphisms than the lister lists: refuse before
        # the search starts, not after it (and not silently when a budget
        # cut leaves nothing to reduce)
        G = make_group([5, 5, 5])
        with pytest.raises(ResourceLimitError):
            enumerate_extremal(G, LengthSet.up_to(2), 2, SearchConfig(node_budget=1),
                               up_to_automorphism=True)

        def no_search(*args, **kwargs):
            raise AssertionError("search started")

        monkeypatch.setattr("zerosum.search._dfs", no_search)
        with pytest.raises(ResourceLimitError):
            enumerate_extremal(G, LengthSet.up_to(2), 2, up_to_automorphism=True)

        # A lister wrapped in a generator function runs only when advanced:
        # the refusal must still come before the search.
        lister = search.enumerate_automorphisms

        def wrapped(*args, **kwargs):
            yield from lister(*args, **kwargs)

        monkeypatch.setattr("zerosum.search.enumerate_automorphisms", wrapped)
        with pytest.raises(ResourceLimitError):
            enumerate_extremal(G, LengthSet.up_to(2), 2, up_to_automorphism=True)

    def test_minimal_zero_sum_enumeration(self):
        ex = enumerate_minimal_zero_sum(C32, 5)
        assert ex.complete and len(ex.sequences) > 0
        for S in ex.sequences:
            assert S.length == 5
            assert sigma(S).is_zero()
            coords = [g.coords for g in S.expand()]
            # minimality: no proper nonempty zero-sum subsequence
            assert brute_min_zero_sum(coords[:-1], (3, 3)) is None
            for drop in range(5):
                rest = coords[:drop] + coords[drop + 1 :]
                assert brute_min_zero_sum(rest, (3, 3)) is None

    @pytest.mark.parametrize("factors", [[2], [5], [6], [2, 2, 2], [3, 3], [2, 4], [4, 4]])
    def test_minimal_zero_sum_matches_filtered_construction(self, factors):
        def reference(G, length, cfg):  # the former filter, dedupe and sort
            free = enumerate_extremal(G, LengthSet.all_positive(), length - 1, cfg)
            out = {}
            for W in free.sequences:
                if length > 1:
                    tab = feasibility(W)
                    if any(tab.possible(sigma(W), l) for l in range(1, length - 1)):
                        continue
                S = W.with_term(-sigma(W))
                out[S.terms] = S
            index = group_table(G).index
            return sorted(out.values(), key=lambda S: tuple(index[g.coords] for g in S.expand()))

        G = make_group(factors)
        for cfg in (None, SearchConfig(node_budget=40)):
            for length in range(1, davenport(G).value + 2):
                ex = enumerate_minimal_zero_sum(G, length, cfg)
                assert list(ex.sequences) == reference(G, length, cfg), length

    def test_minimal_zero_sum_cyclic_generators(self):
        G = make_group([6])
        ex = enumerate_minimal_zero_sum(G, 6)
        assert ex.complete
        # length-n minimal zero-sums over C_n are g^n for generators g
        expected = {
            tuple([(g,)] * 6) for g in range(1, 6) if math.gcd(g, 6) == 1
        }
        got = {tuple(h.coords for h in S.expand()) for S in ex.sequences}
        assert got == expected

    def test_subsequence_sums_cover_group_at_davenport_length(self):
        # every minimal zero-sum sequence of maximal length D(G) reaches the
        # whole group with its subsequence sums
        ex = enumerate_minimal_zero_sum(C32, 5)
        for S in ex.sequences:
            tab = feasibility(S)
            sums = {
                c
                for c in all_elements((3, 3))
                if any(tab.possible(C32.element(c), l) for l in range(1, 6))
            }
            assert len(sums) == 9
