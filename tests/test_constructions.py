"""Lower-bound constructions, inverse families, and the structure matcher."""

import random

import pytest

import zerosum.constructions as constructions
import zerosum.groups as groups
from zerosum import (
    InvalidInputError,
    InvalidParamsError,
    LowerCnrParams,
    LowerGeneralParams,
    Sequence,
    build_inv2,
    build_lower_general,
    build_lowercnr,
    d_star,
    inverse_family_members,
    make_group,
    match_inverse_structure,
    min_zero_sum_length,
    s_leq,
    sigma,
    verify_construction,
)

from conftest import brute_invertible_matrices, brute_min_zero_sum, matrix_image

C32 = make_group([3, 3])


class TestParams:
    @pytest.mark.parametrize("n,r,k", [(1, 2, 0), (3, 1, 0), (3, 2, -1), (3, 2, 3)])
    def test_lowercnr_rejects(self, n, r, k):
        with pytest.raises(InvalidParamsError):
            LowerCnrParams(n, r, k)

    def test_lower_general_range(self):
        G = make_group([3, 3, 3])  # D* = 7, exp = 3: D*-k in [3, 5] -> k in [2, 4]
        for k in (2, 3, 4):
            LowerGeneralParams(G, k)
        for k in (0, 1, 5):
            with pytest.raises(InvalidParamsError):
                LowerGeneralParams(G, k)


class TestLowerCnr:
    @pytest.mark.parametrize(
        "n,r,k",
        [(n, r, k) for n in (2, 3, 4) for r in (2, 3) for k in range(n)],
    )
    def test_length_and_min_zero_sum(self, n, r, k):
        S = build_lowercnr(LowerCnrParams(n, r, k))
        report = verify_construction(S, 2 ** (r - 1) * (n - 1) + k, 2 * n - k)
        assert report.passed
        # brute confirmation of the shortest zero-sum claim
        coords = [g.coords for g in S.expand()]
        brute = brute_min_zero_sum(coords, S.group.factors)
        assert brute is None or brute >= 2 * n - k

    def test_base_case_shape(self):
        S = build_lowercnr(LowerCnrParams(3, 2, 2))
        assert S == Sequence.parse(C32, "1,0^2; 0,1^2; 1,1^2")

    def test_doubling_shape(self):
        S = build_lowercnr(LowerCnrParams(3, 3, 1))
        G = S.group
        assert len(S) == 2 ** 2 * 2 + 1
        assert S.multiplicity(G.element((1, 1, 0))) == 1
        for coords in [(1, 0, 0), (1, 0, 1), (0, 1, 0), (0, 1, 1)]:
            assert S.multiplicity(G.element(coords)) == 2

    def test_sharpness_against_search(self):
        # the construction meets the exact value of the invariant here ...
        for r, k in [(2, 0), (2, 1), (3, 0), (4, 0)]:
            S = build_lowercnr(LowerCnrParams(2, r, k))
            value = s_leq(S.group, 2 * 2 - k - 1).value
            assert value == len(S) + 1
        # ... and is a strict lower bound (not sharp) at (n, r, k) = (2, 3, 1)
        S = build_lowercnr(LowerCnrParams(2, 3, 1))
        assert s_leq(S.group, 2).value == 8 > len(S) + 1


class TestLowerGeneral:
    @pytest.mark.parametrize(
        "factors,k",
        [([3, 3], 1), ([3, 3], 2), ([2, 4], 1), ([2, 2, 2], 1), ([3, 3, 3], 3)],
    )
    def test_verifies(self, factors, k):
        G = make_group(factors)
        S = build_lower_general(LowerGeneralParams(G, k))
        report = verify_construction(S, d_star(G) + k - 1, d_star(G) - k + 1)
        assert report.passed

    def test_exact_shape_rank_two(self):
        G = make_group([3, 3])
        S = build_lower_general(LowerGeneralParams(G, 2))
        # D* = 5, x = 3 + 2 - 3 = 2: e_2^2 e_1^2 (e_2 - e_1)^2
        assert S == Sequence.parse(G, "0,1^2; 1,0^2; 2,1^2")


class TestInverseFamilies:
    def test_build_shapes(self):
        assert build_inv2(3, 2) == Sequence.parse(C32, "1,0^2; 0,1^2; 1,1^2")
        assert build_inv2(4, 3, x=3) == Sequence.parse(
            make_group([4, 4]), "1,0^3; 0,1^3; 3,1^3"
        )
        S = build_inv2(3, 1)
        assert S == Sequence.parse(C32, "1,0^2; 0,1^2; 1,1")
        assert build_inv2(3, 0) == Sequence.parse(C32, "1,0^2; 0,1^2")

    def test_build_validation(self):
        with pytest.raises(InvalidParamsError):
            build_inv2(4, 3, x=2)  # gcd(2, 4) != 1
        with pytest.raises(InvalidParamsError):
            build_inv2(4, 2, x=1)  # middle k takes no parameters
        with pytest.raises(InvalidParamsError):
            build_inv2(3, 2, xs=(5, 5, 5))  # k = n-1 takes x, not xs
        with pytest.raises(InvalidParamsError):
            build_inv2(4, 1, x=2)  # k = 1 takes xs, not x
        with pytest.raises(InvalidParamsError):
            build_inv2(4, 0, x=1)  # k = 0 takes xs, not x
        with pytest.raises(InvalidParamsError):
            build_inv2(2, 1, xs=(0, 1))  # for n = 2, k = 1 is k = n-1
        with pytest.raises(InvalidParamsError):
            build_inv2(3, 1, xs=(1, 1, 1))  # sum = 3 = 0 mod 3, not 1
        with pytest.raises(InvalidParamsError):
            build_inv2(3, 3)  # k out of range

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_members_avoid_short_zero_sums(self, n):
        for k in range(n):
            for S in inverse_family_members(n, k):
                assert len(S) == 2 * n - 2 + k
                m = min_zero_sum_length(S)
                assert m is None or m >= 2 * n - k

    def test_member_counts_small(self):
        # Per k = 0..n-1: k = n-1 has one member per unit x, middle k one.
        sizes = {
            2: [3, 1],
            3: [9, 3, 2],
            4: [28, 8, 1, 2],
            5: [95, 25, 1, 1, 4],
            6: [327, 75, 1, 1, 1, 2],
            7: [1169, 245, 1, 1, 1, 1, 6],
            8: [4232, 800, 1, 1, 1, 1, 1, 4],
            9: [15570, 2700, 1, 1, 1, 1, 1, 1, 6],
        }
        for n, expected in sizes.items():
            assert [len(inverse_family_members(n, k)) for k in range(n)] == expected, n

    def test_k0_members_are_truncations(self):
        for n in range(2, 7):
            ones = {m.terms for m in inverse_family_members(n, 1)}
            for W in inverse_family_members(n, 0):
                assert W.with_term(-sigma(W)).terms in ones


class TestMatcher:
    @pytest.mark.parametrize("n,k", [(3, 0), (3, 1), (3, 2), (4, 1), (4, 3)])
    def test_members_match(self, n, k):
        for S in inverse_family_members(n, k):
            assert match_inverse_structure(S, n, k)

    def test_images_of_members_match(self):
        rng = random.Random(7)
        autos = brute_invertible_matrices(3, 2)
        for k in (0, 1, 2):
            for S in inverse_family_members(3, k):
                M = rng.choice(autos)
                assert match_inverse_structure(matrix_image(M, S), 3, k)

    def test_non_members_rejected(self):
        # contains zero, correct length 6 for (n, k) = (3, 2)
        S = Sequence.parse(C32, "0,0^2; 1,0^2; 0,1^2")
        assert not match_inverse_structure(S, 3, 2)
        # one element repeated: has a length-3 zero-sum, cannot be extremal
        T = Sequence.parse(C32, "1,0^6")
        assert not match_inverse_structure(T, 3, 2)

    def test_family_built_once_per_n_and_k(self, monkeypatch):
        S = inverse_family_members(7, 1)[0]
        first = match_inverse_structure(S, 7, 1)
        assert first

        def rebuilt(n, k):
            raise AssertionError(f"family ({n}, {k}) rebuilt")

        monkeypatch.setattr(constructions, "inverse_family_members", rebuilt)
        assert match_inverse_structure(S, 7, 1) == first

    def test_wrong_length_raises(self):
        with pytest.raises(InvalidInputError):
            match_inverse_structure(Sequence.parse(C32, "1,0^2"), 3, 2)

    @pytest.mark.parametrize("k", [-4, 3, 7])
    def test_k_out_of_range_raises_before_length(self, k):
        # A length-6 sequence fits k = 2 only; k is checked first.
        S = Sequence.parse(C32, "1,0^3; 0,1^3")
        with pytest.raises(InvalidInputError, match="need k"):
            match_inverse_structure(S, 3, k)

    def test_wrong_group_raises(self):
        S = Sequence.parse(make_group([4, 4]), "1,0^3; 0,1^3; 1,1^2")
        with pytest.raises(InvalidInputError):
            match_inverse_structure(S, 3, 2)


def match_by_image_scan(S, n, k):
    """The reference matcher: apply every automorphism and compare the
    image (extended by its negated sum when k = 0) with the family."""
    family = {m.terms for m in inverse_family_members(n, k or 1)}
    for M in brute_invertible_matrices(n, 2):
        U = matrix_image(M, S)
        if (U.with_term(-sigma(U)) if k == 0 else U).terms in family:
            return True
    return False


class TestMatcherAgainstImageScan:
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_agrees_on_members_images_and_non_members(self, n):
        G = make_group([n, n])
        elements = [G.element((a, b)) for a in range(n) for b in range(n)]
        autos = brute_invertible_matrices(n, 2)
        rng = random.Random(40 + n)
        outcomes = set()
        for k in (0, 1, n - 1):
            members = inverse_family_members(n, k)
            for member in rng.sample(members, min(2, len(members))):
                image = matrix_image(rng.choice(autos), member)
                # One term swapped for a random element: usually not a member.
                terms = list(image.expand())
                terms[rng.randrange(len(terms))] = rng.choice(elements)
                altered = Sequence.from_elements(G, terms)
                noise = Sequence.from_elements(
                    G, [rng.choice(elements) for _ in range(2 * n - 2 + k)]
                )
                for S in (member, image, altered, noise):
                    expected = match_by_image_scan(S, n, k)
                    assert match_inverse_structure(S, n, k) == expected, (n, k, S.format())
                    outcomes.add(expected)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("n", [5, 7])
    def test_table_agrees_with_coordinate_path(self, monkeypatch, n):
        # For every k: a member's image under a random automorphism, which
        # matches, and that image with one term replaced by the negative of
        # another, which has a zero-sum of length <= 2 and does not.  The
        # permutation table and the coordinate path give the same answers.
        G = make_group([n, n])
        autos = brute_invertible_matrices(n, 2)
        rng = random.Random(50 + n)
        cases = []
        for k in range(n):
            image = list(matrix_image(rng.choice(autos), rng.choice(
                inverse_family_members(n, k))).expand())
            i, j = rng.sample(range(len(image)), 2)
            other = image[:i] + [-image[j]] + image[i + 1:]
            cases += [(Sequence.from_elements(G, image), k, True),
                      (Sequence.from_elements(G, other), k, False)]
        assert [match_inverse_structure(S, n, k) for S, k, _ in cases] == \
            [expected for _, _, expected in cases]
        monkeypatch.setattr(groups, "automorphism_permutations", lambda G: None)
        assert [match_inverse_structure(S, n, k) for S, k, _ in cases] == \
            [expected for _, _, expected in cases]


class TestVerificationReport:
    def test_failure_paths(self):
        S = Sequence.parse(C32, "1,0; 2,0")  # zero-sum of length 2
        report = verify_construction(S, 3, 3)
        assert not report.length_ok
        assert not report.min_ok
        assert not report.passed
        assert report.actual_min == 2

    def test_no_zero_sum_passes_min(self):
        S = Sequence.parse(C32, "1,0")
        report = verify_construction(S, 1, 5)
        assert report.passed and report.actual_min is None
