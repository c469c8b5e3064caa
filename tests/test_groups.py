"""Group arithmetic, normalization, structural constants, automorphisms."""

import math
from fractions import Fraction

import pytest

from zerosum import (
    GroupElement,
    GroupSpec,
    InvalidFactorError,
    InvalidInputError,
    ResourceLimitError,
    d_equals_dstar_known,
    d_star,
    enumerate_automorphisms,
    enumerate_elements,
    make_group,
    parse_group,
)
from zerosum import groups
from zerosum.groups import (
    _automorphism_count,
    _automorphisms_by_rows,
    automorphism_images,
    automorphism_permutations,
    factorize,
    group_table,
    is_prime,
    orbit_minima,
    permutation_table_fits,
)

from conftest import (
    all_elements,
    apply_chain_matrix,
    apply_matrix,
    brute_automorphism_maps,
    brute_invertible_matrices,
    factor_chains,
)


class TestConstruction:
    def test_invariant_chain_accepted(self):
        G = GroupSpec((2, 4, 8))
        assert G.factors == (2, 4, 8)
        assert G.order == 64
        assert G.exponent == 8
        assert G.rank == 3

    def test_trivial_group(self):
        G = GroupSpec(())
        assert G.order == 1
        assert G.exponent == 1
        assert G.rank == 0

    @pytest.mark.parametrize("bad", [(0,), (1, 2), (-3,), (2, 3)])
    def test_bad_direct_factors_rejected(self, bad):
        with pytest.raises(InvalidFactorError):
            GroupSpec(bad)

    def test_make_group_normalizes_coprime_product(self):
        assert make_group([2, 3]).factors == (6,)
        assert make_group([6, 10]).factors == (2, 30)
        assert make_group([4, 6]).factors == (2, 12)
        assert make_group([3, 3, 4]).factors == (3, 12)

    def test_make_group_keeps_chains(self):
        assert make_group([3, 3, 3]).factors == (3, 3, 3)
        assert make_group([2, 4]).factors == (2, 4)

    def test_make_group_rejects_nonpositive(self):
        with pytest.raises(InvalidFactorError):
            make_group([0, 4])
        with pytest.raises(InvalidFactorError):
            make_group([-2])

    def test_make_group_rejects_trivial_factor(self):
        with pytest.raises(InvalidFactorError):
            make_group([1, 5])


class TestParse:
    @pytest.mark.parametrize(
        "text,factors",
        [
            ("C3^3", (3, 3, 3)),
            ("c3^3", (3, 3, 3)),
            ("C2xC4", (2, 4)),
            ("C2XC4", (2, 4)),
            ("2,4", (2, 4)),
            (" 5 ", (5,)),
            ("C2x C3", (6,)),
            ("C5^3", (5, 5, 5)),
        ],
    )
    def test_grammar(self, text, factors):
        assert parse_group(text).factors == factors

    @pytest.mark.parametrize("text", ["", "C", "3^", "Cx", "2;4", "C3^^2", "spam"])
    def test_rejects_garbage(self, text):
        with pytest.raises(InvalidInputError):
            parse_group(text)


class TestElements:
    def test_componentwise_arithmetic(self):
        G = make_group([2, 4])
        a = G.element((1, 3))
        b = G.element((1, 2))
        assert (a + b).coords == (0, 1)
        assert (a - b).coords == (0, 1)
        assert (-a).coords == (1, 1)
        assert (3 * a).coords == (1, 1)

    def test_coordinates_reduced_mod_factor(self):
        G = make_group([2, 4])
        assert G.element((5, -1)).coords == (1, 3)

    def test_element_orders(self):
        G = make_group([2, 4])
        # lcm of coordinate orders; (1, 2) has order 2, not 4.
        assert G.element((1, 2)).order() == 2
        assert G.element((0, 1)).order() == 4
        assert G.element((1, 1)).order() == 4
        assert G.zero().order() == 1

    def test_order_matches_definition(self):
        G = make_group([2, 4])
        for coords in all_elements(G.factors):
            g = G.element(coords)
            m = g.order()
            assert (m * g).is_zero()
            assert all(not (j * g).is_zero() for j in range(1, m))

    def test_basis_elements_one_based(self):
        G = make_group([3, 3, 3])
        assert G.e(1).coords == (1, 0, 0)
        assert G.e(3).coords == (0, 0, 1)
        with pytest.raises(InvalidInputError):
            G.e(0)
        with pytest.raises(InvalidInputError):
            G.e(4)

    def test_enumerate_elements_lex_order(self):
        G = make_group([2, 4])
        coords = [g.coords for g in enumerate_elements(G)]
        assert coords == all_elements(G.factors)
        assert coords[0] == (0, 0)
        assert len(set(coords)) == G.order


class TestStructuralConstants:
    @pytest.mark.parametrize(
        "factors,expected",
        [([3, 3, 3], 7), ([2, 4], 5), ([5, 5, 5], 13), ([2, 2, 2], 4), ([6], 6)],
    )
    def test_d_star(self, factors, expected):
        assert d_star(make_group(factors)) == expected

    @pytest.mark.parametrize(
        "factors",
        [
            [7],  # cyclic
            [4, 12],  # rank 2
            [3, 9, 27],  # p-group
            [2, 2, 12],  # p-group plus coprime cyclic part
            [2, 4, 8],  # 2-group of rank 3
            [2, 6, 12],  # rank 3, smallest factor 2
            [3, 6, 12],  # rank 3, 3 | 6
            [6, 18, 54],  # rank 3, even with one odd prime
            [2, 2, 2, 10],  # rank 4 starting 2,2,2
        ],
    )
    def test_davenport_known_families(self, factors):
        assert d_equals_dstar_known(make_group(factors))

    @pytest.mark.parametrize("factors", [[6, 6, 6, 6], [5, 15, 15], [3, 3, 15]])
    def test_davenport_unknown_outside_families(self, factors):
        assert not d_equals_dstar_known(make_group(factors))

    def test_davenport_known_even_rank_three_single_odd_prime(self):
        # C_6^3 = C_{2*3}^3 falls in the all-even rank-3 family.
        assert d_equals_dstar_known(make_group([6, 6, 6]))
        # ... but two distinct odd primes do not.
        assert not d_equals_dstar_known(make_group([6, 6, 30]))


def gl_order(n, r):
    """|GL_r(Z/n)| = n^(r^2) prod_{p | n} prod_{i=1..r} (1 - p^-i)."""
    count = Fraction(n ** (r * r))
    for p in factorize(n):
        for i in range(1, r + 1):
            count *= 1 - Fraction(1, p**i)
    assert count.denominator == 1
    return int(count)


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "n,r", [(2, 2), (3, 2), (4, 2), (6, 2), (2, 3), (3, 3), (5, 2), (7, 2)]
    )
    def test_matches_brute_force_in_order(self, n, r):
        got = tuple(enumerate_automorphisms(make_group([n] * r)))
        assert got == brute_invertible_matrices(n, r)
        assert len(got) == gl_order(n, r)

    def test_cap_counts_automorphisms(self):
        # |GL_3(F_5)| = 1,488,000 is over the cap; refused before any item.
        with pytest.raises(ResourceLimitError, match="1488000"):
            next(enumerate_automorphisms(make_group([5, 5, 5])))

    def test_cap_admits_c32_squared(self):
        # 32^4 = 1,048,576 candidate matrices, but only 393,216 automorphisms.
        assert gl_order(32, 2) == 393_216
        first = next(enumerate_automorphisms(make_group([32, 32])))
        assert first == ((0, 1), (1, 0))

    def test_count_is_general_linear_order(self):
        G = make_group([3, 3])
        autos = list(enumerate_automorphisms(G))
        # |GL_2(F_3)| = (9-1)(9-3)
        assert len(autos) == 48

    def test_maps_are_bijective_homomorphisms(self):
        G = make_group([2, 2])
        for M in enumerate_automorphisms(G):
            def phi(g):
                return G.element(apply_matrix(M, 2, g.coords))

            images = {phi(g) for g in enumerate_elements(G)}
            assert len(images) == G.order
            for a in enumerate_elements(G):
                for b in enumerate_elements(G):
                    assert phi(a + b) == phi(a) + phi(b)

    def test_identity_present(self):
        G = make_group([4, 4])
        assert any(
            all(apply_matrix(M, 4, g.coords) == g.coords for g in enumerate_elements(G))
            for M in enumerate_automorphisms(G)
        )

    def test_non_homocyclic_over_cap_refused(self):
        # C5 + C5 + C10 has |GL_3(F_5)| * |Aut(C2)| = 1,488,000 automorphisms.
        with pytest.raises(ResourceLimitError, match="1488000"):
            list(enumerate_automorphisms(make_group([5, 5, 10])))

    def test_refuses_at_call(self):
        # The refusals come from the call itself, before any next(), for
        # the lister and for the image helper that reads it, in both forms.
        for factors in ([5, 5, 5], [5, 5, 10]):
            G = make_group(factors)
            with pytest.raises(ResourceLimitError):
                enumerate_automorphisms(G)
            with pytest.raises(ResourceLimitError):
                automorphism_images(G, [(1, 0, 0)])
            with pytest.raises(ResourceLimitError):
                automorphism_images(G, [(1, 0, 0)], lanes=True)

    def test_trivial_group_has_the_empty_matrix(self):
        assert list(enumerate_automorphisms(GroupSpec(()))) == [()]

    @pytest.mark.parametrize("n", range(2, 65))
    def test_cyclic_units_are_the_row_path(self, n):
        # On C_n the maps are listed as the units mod n; the row-by-row
        # path, which tests each candidate row against every prime block,
        # gives the same maps in the same order.
        G = make_group([n])
        got = list(enumerate_automorphisms(G))
        assert got == list(_automorphisms_by_rows(G))
        assert got == [((a,),) for a in range(n) if math.gcd(a, n) == 1]
        assert len(got) == _automorphism_count(G)

    @pytest.mark.parametrize("factors", [f for f in factor_chains(24) if len(f) > 1], ids=str)
    def test_matches_generator_images(self, factors):
        # The same set of maps as every bijective choice of generator
        # images, each listed once, in row-major order of the matrices.
        G = make_group(list(factors))
        table = group_table(G)
        got = list(enumerate_automorphisms(G))
        assert got == sorted(got)
        maps = [tuple(table.index[apply_chain_matrix(M, factors, a)] for a in table.elements)
                for M in got]
        assert len(set(maps)) == len(maps)
        assert set(maps) == set(brute_automorphism_maps(factors))

    @pytest.mark.parametrize("factors", [f for f in factor_chains(32) if len(f) > 1], ids=str)
    def test_count_is_closed_form(self, factors):
        # |Aut(G)| by Hillar and Rhea, without listing a map, against the
        # generator-image count; on C_p^r (C2^5 has 9,999,360 maps) against
        # the order of GL_r(F_p) instead.
        G = make_group(list(factors))
        if factors in FIELD_CHAINS:
            expected = gl_order(factors[0], len(factors))
        else:
            expected = sum(1 for _ in brute_automorphism_maps(factors))
        assert _automorphism_count(G) == expected

    @pytest.mark.parametrize("n,r", [(3, 2), (4, 2), (2, 3), (6, 1)])
    def test_images_are_the_matrix_action(self, n, r):
        # Unsorted, with a repeat; images come per matrix in lister order,
        # each in input order.
        G = make_group([n] * r)
        coords = [(1,) * r, (0,) * (r - 1) + (n - 1,), (1,) * r, (n - 1,) + (0,) * (r - 1)]
        matrices = brute_invertible_matrices(n, r)
        index = group_table(G).index
        assert list(automorphism_images(G, coords)) == [
            tuple(index[apply_matrix(M, n, a)] for a in coords) for M in matrices
        ]
        assert list(automorphism_images(G, [])) == [() for _ in matrices]
        # Byte lanes: per input, coordinate i of its image under every map,
        # all in one block here.
        assert list(automorphism_images(G, coords, lanes=True)) == [[
            tuple(bytes(apply_matrix(M, n, a)[i] for M in matrices) for i in range(r))
            for a in coords
        ]]

    @pytest.mark.parametrize("factors", [(2, 4), (3, 9), (2, 2, 6)], ids=str)
    def test_chain_images_are_the_matrix_action(self, monkeypatch, factors):
        # Row i of M acts mod n_i.  Lanes come in blocks of maps, here of
        # 64, so C2^2xC6 (336 maps) spans six; joined, they are the images.
        monkeypatch.setattr(groups, "_LANE_BLOCK", 64)
        G = make_group(list(factors))
        coords = [(1,) * G.rank, tuple(n - 1 for n in factors), (1,) * G.rank, (0,) * G.rank]
        matrices = list(enumerate_automorphisms(G))
        index = group_table(G).index
        assert list(automorphism_images(G, coords)) == [
            tuple(index[apply_chain_matrix(M, factors, a)] for a in coords) for M in matrices
        ]
        blocks = list(automorphism_images(G, coords, lanes=True))
        assert [len(block[0][0]) for block in blocks[:-1]] == [64] * (len(blocks) - 1)
        assert [tuple(b"".join(block[x][i] for block in blocks) for i in range(G.rank))
                for x in range(len(coords))] == [
            tuple(bytes(apply_chain_matrix(M, factors, a)[i] for M in matrices)
                  for i in range(G.rank))
            for a in coords
        ]

    def test_lanes_need_at_most_256_elements(self):
        with pytest.raises(ResourceLimitError):
            automorphism_images(make_group([17, 17]), [(1, 0)], lanes=True)


class TestPermutationTable:
    @pytest.mark.parametrize(
        "n,r", [(2, 2), (3, 2), (4, 2), (6, 2), (2, 3), (5, 2), (12, 1), (256, 1), (3, 3), (9, 2)]
    )
    def test_is_the_matrix_action(self, n, r):
        # One column per element x: byte k is phi_k(x), for the k-th matrix
        # in the lister's order; C256 fills the byte range.
        G = make_group([n] * r)
        table = group_table(G)
        columns = automorphism_permutations(G)
        assert len(columns) == G.order
        assert all(len(column) == gl_order(n, r) for column in columns)
        for k, M in enumerate(brute_invertible_matrices(n, r)):
            assert [column[k] for column in columns] == \
                [table.index[apply_matrix(M, n, a)] for a in table.elements]

    @pytest.mark.parametrize("factors,tabled", [
        # |Aut(G)| against the cap of 2^14 = 16,384, and |G| <= 256.
        ([6, 6], True),  # 288
        ([7, 7], True),  # 2,016
        ([8, 8], True),  # 1,536
        ([3, 3, 3], True),  # 11,232
        ([9, 9], True),  # 3,888
        ([256], True),  # 128
        ([257], False),  # 256, but more than 256 elements
        ([2, 2, 2, 2], False),  # 20,160
        ([13, 13], False),  # 26,208
        ([4, 4, 4], False),  # 86,016
    ], ids=str)
    def test_only_small_homocyclic_groups(self, factors, tabled):
        G = make_group(factors)
        assert permutation_table_fits(G) == tabled
        assert (automorphism_permutations(G) is not None) == tabled

    @pytest.mark.parametrize("factors,tabled", [
        ([2, 4], True),  # 8
        ([3, 9], True),  # 108
        ([2, 4, 4], True),  # 1,536
        ([2, 2, 2, 4], False),  # 21,504
        ([2, 2, 2, 6], False),  # 40,320
        ([2, 2, 66], False),  # 3,360, but 264 elements
        ([], False),  # the trivial group: one map, nothing to reorder
    ], ids=str)
    def test_non_homocyclic_cap_cases(self, factors, tabled):
        G = make_group(factors)
        assert permutation_table_fits(G) == tabled
        assert (automorphism_permutations(G) is not None) == tabled

    @pytest.mark.parametrize("factors", [(2, 4), (3, 9), (2, 12), (2, 2, 6), (4, 8)], ids=str)
    def test_chain_table_is_the_matrix_action(self, factors):
        # Column x, byte k: the index of M_k x for the k-th matrix the
        # lister yields, applied mod n_i row by row.
        G = make_group(list(factors))
        table = group_table(G)
        columns = automorphism_permutations(G)
        matrices = list(enumerate_automorphisms(G))
        assert all(len(column) == len(matrices) for column in columns)
        for k, M in enumerate(matrices):
            assert [column[k] for column in columns] == \
                [table.index[apply_chain_matrix(M, factors, a)] for a in table.elements]

    def test_fits_lists_no_map(self, monkeypatch):
        def refuse(G):
            raise AssertionError("listed a map")

        monkeypatch.setattr(groups, "enumerate_automorphisms", refuse)
        fits = [permutation_table_fits(make_group(list(f))) for f in factor_chains(64)]
        assert sum(fits) == 44 + sum(1 for f in factor_chains(64) if len(f) == 1)


class TestIndexImages:
    # Tabled: C3^2, C2xC4, C6^2.  Over the table cap: C2^3xC4 (21,504 maps)
    # and the trivial group, whose one map has no table.
    @pytest.mark.parametrize("factors", [(3, 3), (2, 4), (6, 6), (2, 2, 2, 4), ()], ids=str)
    def test_is_the_matrix_action_on_either_path(self, monkeypatch, factors):
        # Per map in lister order, the indices of the images of the inputs,
        # unsorted and with a repeat, in input order; with the table and
        # with its lookup patched away.
        G = make_group(list(factors))
        table = group_table(G)
        indices = [G.order - 1, 0, G.order - 1, G.order // 2]
        expected = [tuple(table.index[apply_chain_matrix(M, factors, table.elements[x])]
                          for x in indices) for M in enumerate_automorphisms(G)]
        empty = [()] * len(expected)
        assert list(groups.automorphism_index_images(G, indices)) == expected
        assert list(groups.automorphism_index_images(G, [])) == empty
        monkeypatch.setattr(groups, "automorphism_permutations", lambda G: None)
        assert list(groups.automorphism_index_images(G, indices)) == expected
        assert list(groups.automorphism_index_images(G, [])) == empty

    @pytest.mark.parametrize("factors", [(), (7,), (2, 4), (3, 9), (2, 2, 6)], ids=str)
    def test_element_index_is_table_order(self, factors):
        # element_index and element_coords agree with group_table and are
        # inverse to each other.
        G = make_group(list(factors))
        table = group_table(G)
        assert [groups.element_index(G, c) for c in table.elements] == list(range(G.order))
        assert [groups.element_coords(G, x) for x in range(G.order)] == list(table.elements)

    def test_element_index_above_the_table_cap(self):
        # C2 x C1021020 has more elements than group_table allows.
        G = make_group([2, 1021020])
        assert groups.element_index(G, (1, 5)) == 1021025
        assert groups.element_coords(G, 2 * 1021020 - 1) == (1, 1021019)

    def test_refuses_over_the_cap_when_called(self):
        with pytest.raises(ResourceLimitError):
            groups.automorphism_index_images(make_group([5, 5, 5]), [1])


def brute_orbit_minima(factors):
    """The orbit minima (as an index bitmask) over every automorphism of
    C_n1 + ... + C_nr, read from the generator-image oracle."""
    least = list(range(math.prod(factors)))  # least index in each element's orbit
    for images in brute_automorphism_maps(factors):
        least = list(map(min, least, images))
    return sum(1 << i for i, j in enumerate(least) if i == j)


# Every search restricts the first term to orbit minima.  On C_p^r the
# brute force is slow (|GL_5(F_2)| = 9,999,360) and the answer is plain.
FIELD_CHAINS = [f for f in factor_chains(32) if len(set(f)) == 1 and is_prime(f[0])]
ORBIT_CHAINS = [f for f in factor_chains(32) if f not in FIELD_CHAINS]


class TestOrbitMinima:
    @pytest.mark.parametrize("factors", ORBIT_CHAINS, ids=str)
    def test_matches_brute_force_orbits(self, factors):
        assert orbit_minima(make_group(factors)) == brute_orbit_minima(factors)

    def test_prime_exponent_homocyclic(self):
        # Aut(C_p^r) = GL_r(F_p) is transitive on nonzero elements.
        for factors in FIELD_CHAINS:
            assert orbit_minima(make_group(factors)) == 0b11, factors

    def test_classes_of_c4_squared(self):
        # 0; order 4 (height 0); order 2 (height 1): first (0,0), (0,1), (0,2).
        assert orbit_minima(make_group([4, 4])) == 0b111


class TestGroupTable:
    def test_rows_agree_with_element_arithmetic(self):
        G = make_group([2, 4])
        tab = group_table(G)
        for gi, g in enumerate(tab.elements):
            row = tab.add_row(gi)
            for si, s in enumerate(tab.elements):
                expected = tuple((x + y) % n for x, y, n in zip(s, g, G.factors))
                assert tab.elements[row[si]] == expected
            sub = tab.sub_row(gi)
            assert all(sub[row[si]] == si for si in range(len(tab.elements)))

    def test_neg_row(self):
        G = make_group([3, 3])
        tab = group_table(G)
        for gi, g in enumerate(tab.elements):
            assert tab.elements[tab.neg[gi]] == tuple((-c) % 3 for c in g)

    def test_element_accessor(self):
        G = make_group([5])
        tab = group_table(G)
        assert tab.element(3).coords == (3,)
        assert tab.element(0).is_zero()

    @pytest.mark.parametrize("factors", [[5], [2, 4], [3, 3, 3]])
    def test_elements_built_once(self, factors):
        G = make_group(factors)
        tab = group_table(G)
        for i, coords in enumerate(tab.elements):
            assert group_table(G).element(i) is tab.element(i)
            assert tab.element(i) == GroupElement(G, coords)
