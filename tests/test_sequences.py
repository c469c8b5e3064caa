"""Sequences, length sets, and the subsequence-sum tables, cross-checked
against position-subset brute force."""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zerosum import (
    InvalidInputError,
    LengthSet,
    ResourceLimitError,
    Sequence,
    feasibility,
    has_zero_sum_in,
    make_group,
    min_zero_sum_length,
    orbit_canonical,
    sigma,
    subsequence_count_table,
)

import zerosum.groups as groups
import zerosum.sequences as sequences
from zerosum.groups import group_table

from conftest import (
    brute_automorphism_maps,
    brute_has_zero_sum,
    brute_invertible_matrices,
    brute_min_zero_sum,
    matrix_image,
    tuple_sum,
)

C32 = make_group([3, 3])
C23 = make_group([2, 2, 2])
C24 = make_group([2, 4])


def random_sequence(G, length, rng):
    elems = [G.element(c) for c in _coords(G)]
    return Sequence.from_elements(G, [rng.choice(elems) for _ in range(length)])


def _coords(G):
    from conftest import all_elements

    return all_elements(G.factors)


class TestSequenceBasics:
    def test_terms_canonical_and_merged(self):
        S = Sequence.from_pairs(C32, [(C32.element((1, 0)), 2), (C32.element((0, 1)), 1),
                                      (C32.element((1, 0)), 1)])
        assert [(g.coords, m) for g, m in S.terms] == [((0, 1), 1), ((1, 0), 3)]
        assert S.length == 4
        assert len(S) == 4
        assert S.multiplicity(C32.element((1, 0))) == 3
        assert S.multiplicity(C32.element((2, 2))) == 0

    def test_equality_is_multiset_equality(self):
        a = Sequence.from_elements(C32, [C32.element((1, 0)), C32.element((0, 1))])
        b = Sequence.from_elements(C32, [C32.element((0, 1)), C32.element((1, 0))])
        assert a == b

    def test_parse_format_round_trip(self):
        S = Sequence.parse(C32, "1,0^2; 0,1; 2,2^3")
        assert S.length == 6
        assert Sequence.parse(C32, S.format()) == S

    def test_parse_errors(self):
        with pytest.raises(InvalidInputError):
            Sequence.parse(C32, "1,0^x")
        with pytest.raises(InvalidInputError):
            Sequence.parse(C32, "1,spam")
        with pytest.raises(InvalidInputError):
            Sequence.parse(C32, "1^2")  # wrong coordinate count

    def test_parse_empty(self):
        assert Sequence.parse(C32, "").length == 0

    def test_with_without_term(self):
        g = C32.element((1, 1))
        S = Sequence.empty(C32).with_term(g, 2)
        assert S.multiplicity(g) == 2
        assert S.without_term(g).multiplicity(g) == 1
        assert S.without_term(g, 2).length == 0
        with pytest.raises(InvalidInputError):
            S.without_term(g, 3)
        with pytest.raises(InvalidInputError):
            S.without_term(C32.element((2, 0)))

    def test_expand_order_matches_terms(self):
        S = Sequence.parse(C32, "0,1^2; 1,0")
        assert [g.coords for g in S.expand()] == [(0, 1), (0, 1), (1, 0)]

    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=8))
    def test_from_elements_round_trip_multiset(self, coords):
        S = Sequence.from_elements(C32, [C32.element(c) for c in coords])
        assert S.length == len(coords)
        assert sorted(g.coords for g in S.expand()) == sorted(coords)
        assert Sequence.parse(C32, S.format()) == S


class TestLengthSet:
    def test_interval(self):
        L = LengthSet.up_to(3)
        assert 1 in L and 3 in L and 4 not in L and 0 not in L
        assert L.mask(10) == 0b1110
        assert L.label() == "[1,3]"

    def test_singleton(self):
        L = LengthSet.exactly(4)
        assert 4 in L and 3 not in L
        assert L.mask(10) == 1 << 4
        assert L.mask(3) == 0
        assert L.label() == "{4}"

    def test_exactly_is_the_one_member_set(self):
        for m in (1, 4, 9):
            L = LengthSet.exactly(m)
            assert L == LengthSet.of((m,))
            assert hash(L) == hash(LengthSet.of((m,)))
            assert L.label() == f"{{{m}}}"
        with pytest.raises(InvalidInputError, match="explicit length set"):
            LengthSet.exactly(0)

    def test_explicit(self):
        L = LengthSet.of([2, 5])
        assert 2 in L and 5 in L and 3 not in L
        assert L.mask(4) == 1 << 2
        assert L.label() == "{2,5}"

    def test_all(self):
        L = LengthSet.all_positive()
        assert 1 in L and 99 in L and 0 not in L
        assert L.mask(3) == 0b1110
        assert L.label() == "N"

    def test_has_multiple_of(self):
        for L in (LengthSet.up_to(5), LengthSet.exactly(6), LengthSet.of([4, 9]),
                  LengthSet.of([2, 3])):
            for n in range(1, 12):
                expected = any(l % n == 0 for l in range(1, 40) if l in L)
                assert L.has_multiple_of(n) == expected, (L.label(), n)
        assert LengthSet.all_positive().has_multiple_of(7)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            LengthSet.up_to(0)
        with pytest.raises(InvalidInputError):
            LengthSet.of([])
        with pytest.raises(InvalidInputError):
            LengthSet.of([0, 2])
        with pytest.raises(InvalidInputError):
            LengthSet("weird")
        with pytest.raises(InvalidInputError, match="must be an integer"):
            LengthSet.up_to(1.5)
        with pytest.raises(InvalidInputError, match="must be integers"):
            LengthSet.of((2.5, 3))


class TestSigma:
    def test_sigma_known(self):
        S = Sequence.parse(C32, "1,0^2; 0,1^2; 1,1")
        assert sigma(S).coords == (0, 0)
        assert sigma(Sequence.empty(C32)).is_zero()

    def test_sigma_brute(self):
        rng = random.Random(5)
        for _ in range(30):
            S = random_sequence(C24, rng.randrange(0, 7), rng)
            expected = tuple_sum([g.coords for g in S.expand()], C24.factors)
            assert sigma(S).coords == expected


class TestFeasibility:
    @pytest.mark.parametrize("G,length", [(C32, 6), (C23, 6), (C24, 5)])
    def test_possible_matches_brute(self, G, length):
        rng = random.Random(11)
        for _ in range(20):
            S = random_sequence(G, length, rng)
            coords = [g.coords for g in S.expand()]
            tab = feasibility(S)
            for target in _coords(G):
                for l in range(0, length + 1):
                    brute = any(
                        tuple_sum([coords[i] for i in pos], G.factors) == target
                        for pos in combinations(range(length), l)
                    )
                    assert tab.possible(G.element(target), l) == brute

    def test_min_zero_sum_matches_brute(self):
        rng = random.Random(12)
        for G in (C32, C23, C24):
            for _ in range(40):
                S = random_sequence(G, rng.randrange(1, 7), rng)
                assert min_zero_sum_length(S) == brute_min_zero_sum(
                    [g.coords for g in S.expand()], G.factors
                )

    def test_has_zero_sum_in_matches_brute(self):
        rng = random.Random(13)
        for _ in range(40):
            S = random_sequence(C32, rng.randrange(1, 7), rng)
            coords = [g.coords for g in S.expand()]
            for L, lengths in [
                (LengthSet.up_to(2), [1, 2]),
                (LengthSet.exactly(3), [3]),
                (LengthSet.of([1, 4]), [1, 4]),
                (LengthSet.all_positive(), range(1, len(coords) + 1)),
            ]:
                assert has_zero_sum_in(S, L) == brute_has_zero_sum(
                    coords, lengths, C32.factors
                )

    def test_zero_sum_lengths_empty_sequence(self):
        assert feasibility(Sequence.empty(C32)).zero_sum_lengths() == ()


class TestCountTable:
    def brute_counts(self, S):
        G = S.group
        coords = [g.coords for g in S.expand()]
        out = {c: [0] * (len(coords) + 1) for c in _coords(G)}
        for l in range(0, len(coords) + 1):
            for pos in combinations(range(len(coords)), l):
                out[tuple_sum([coords[i] for i in pos], G.factors)][l] += 1
        return out

    def test_exact_counts_match_brute(self):
        rng = random.Random(21)
        from zerosum.groups import group_table

        for G in (C32, C24):
            tab = group_table(G)
            for _ in range(10):
                S = random_sequence(G, rng.randrange(0, 7), rng)
                counts = subsequence_count_table(S)
                brute = self.brute_counts(S)
                for idx, c in enumerate(tab.elements):
                    assert counts[idx] == brute[c]

    def test_mod_reduction(self):
        rng = random.Random(22)
        S = random_sequence(C32, 6, rng)
        exact = subsequence_count_table(S)
        mod = subsequence_count_table(S, mod=3)
        assert all(
            m == e % 3 for row_m, row_e in zip(mod, exact) for m, e in zip(row_m, row_e)
        )

    def test_max_len_truncation(self):
        rng = random.Random(23)
        S = random_sequence(C32, 6, rng)
        full = subsequence_count_table(S)
        short = subsequence_count_table(S, max_len=2)
        assert all(row[:3] == frow[:3] for row, frow in zip(short, full))
        assert len(short[0]) == 3

    def test_field_width_holds_central_binomials(self):
        # 24 zero terms: the count of length l is C(24, l), which peaks at
        # C(24, 12); a field too narrow for it would carry into the next.
        C2 = make_group([2])
        S = Sequence.from_pairs(C2, [(C2.zero(), 24)])
        counts = subsequence_count_table(S)
        assert counts[0] == [math.comb(24, l) for l in range(25)]
        assert counts[1] == [0] * 25
        assert subsequence_count_table(S, mod=5)[0] == [math.comb(24, l) % 5 for l in range(25)]
        assert subsequence_count_table(S, max_len=12)[0] == [math.comb(24, l) for l in range(13)]

    def test_counts_match_brute_exact_mod_and_truncated(self):
        rng = random.Random(25)
        for G in (C32, C23, C24, make_group([5])):
            tab = group_table(G)
            for _ in range(6):
                n = rng.randrange(0, 9)
                S = random_sequence(G, n, rng)
                brute = self.brute_counts(S)
                for mod in (None, 2, 3):
                    for max_len in (None, 0, 2, n + 3):
                        top = n if max_len is None else min(max_len, n)
                        counts = subsequence_count_table(S, mod=mod, max_len=max_len)
                        for idx, c in enumerate(tab.elements):
                            expected = [x % mod if mod else x for x in brute[c][: top + 1]]
                            assert counts[idx] == expected, (G, S.format(), mod, max_len)

    def test_negative_max_len_rejected(self):
        with pytest.raises(InvalidInputError):
            subsequence_count_table(Sequence.empty(C32), max_len=-1)


class TestAutomorphismAction:
    def test_preserves_zero_sum_lengths(self):
        rng = random.Random(31)
        autos = brute_invertible_matrices(3, 2)
        for _ in range(10):
            S = random_sequence(C32, 5, rng)
            base = feasibility(S).zero_sum_lengths()
            M = rng.choice(autos)
            assert feasibility(matrix_image(M, S)).zero_sum_lengths() == base

    def test_orbit_canonical_is_least_and_invariant(self):
        rng = random.Random(32)
        for _ in range(5):
            S = random_sequence(C32, 4, rng)
            canon = orbit_canonical(S)
            images = [matrix_image(M, S) for M in brute_invertible_matrices(3, 2)]
            assert canon in images
            for U in images:
                assert orbit_canonical(U) == canon

    @pytest.mark.parametrize(
        "factors,count,length",
        [((3, 3, 3), 2, 6), ((4, 4), 4, 6), ((6, 6), 4, 6)],
        ids=["C3^3", "C4^2", "C6^2"],
    )
    def test_orbit_canonical_matches_image_scan(self, factors, count, length):
        # The reference: the least matrix_image of S, keyed by the
        # enumeration indices of its terms.
        G = make_group(list(factors))
        index = group_table(G).index
        rng = random.Random(33)
        for _ in range(count):
            S = random_sequence(G, rng.randint(1, length), rng)
            images = (matrix_image(M, S) for M in brute_invertible_matrices(G.exponent, G.rank))
            least = min(images, key=lambda U: tuple(index[g.coords] for g in U.expand()))
            assert orbit_canonical(S) == least

    def test_orbit_canonical_of_empty_sequence(self):
        for G in (C32, make_group([4, 4])):
            assert orbit_canonical(Sequence.empty(G)) == Sequence.empty(G)

    def test_orbit_canonical_on_the_trivial_group(self):
        # One map and no coordinate: every sequence is its own canonical form.
        G = make_group([])
        S = Sequence.from_elements(G, [group_table(G).element(0)] * 2)
        assert orbit_canonical(S) == S

    def test_orbit_canonical_above_the_table_cap(self):
        # C_1021020 has more than ENUMERATION_CAP elements, so group_table
        # refuses it, but only 184,320 automorphisms (x -> ux, u a unit).
        # 3 -> 1 takes u = 1/3, and then -1 -> -1/3 = -3 mod 1021020 / 3.
        G = make_group([1021020])
        S = Sequence.parse(G, "3^2; 1021019")
        assert orbit_canonical(S) == Sequence.parse(G, "1; 1021017^2")

    def test_orbit_canonical_reads_no_table_over_the_permutation_cap(self, monkeypatch):
        # C2^3xC4 is over the permutation-table cap: its canonical form comes
        # from the coordinate path, which must not call group_table.
        G = make_group([2, 2, 2, 4])
        S = Sequence.parse(G, "1,0,1,2; 0,1,1,3^2; 1,1,0,1")
        expected = orbit_canonical(S)

        def refuse(G):
            raise AssertionError("group_table was called")

        for module in (groups, sequences):
            monkeypatch.setattr(module, "group_table", refuse)
        assert orbit_canonical(S) == expected

    def test_orbit_canonical_refuses_over_cap(self):
        # C5^3 has 1,488,000 automorphisms: no table, and the lister refuses.
        G = make_group([5, 5, 5])
        with pytest.raises(ResourceLimitError):
            orbit_canonical(Sequence.parse(G, "1,0,0; 0,1,0"))

    @pytest.mark.parametrize("factors", [(2, 4), (3, 9), (2, 12), (2, 2, 6), (2, 2, 2, 4)],
                             ids=str)
    def test_orbit_canonical_on_chains_is_least_image(self, factors):
        # Against the least image over the generator-image oracle, by
        # element indices; C2^3xC4 (21,504 maps) is over the table cap, so
        # its images come from the coordinate path.
        G = make_group(list(factors))
        table = group_table(G)
        maps = list(brute_automorphism_maps(factors))
        rng = random.Random(34)
        for _ in range(4):
            S = random_sequence(G, rng.randint(1, 8), rng)
            indices = [table.index[g.coords] for g in S.expand()]
            least = min(sorted(perm[x] for x in indices) for perm in maps)
            assert orbit_canonical(S) == Sequence.from_elements(G, map(table.element, least))
