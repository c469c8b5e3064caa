"""Theorem-shaped claims, the per-sequence binomial guarantee, and the
threshold-conjecture harness."""

import random

import pytest

from zerosum import (
    InvalidInputError,
    SearchConfig,
    Sequence,
    binom_mod_p,
    check_lemma_5_1,
    check_thm_1_8,
    check_thm_1_9,
    check_thm_1_10,
    conjecture_harness,
    d_star,
    davenport_value,
    known_s_leq,
    lemma_3_6_property,
    make_group,
    min_zero_sum_length,
    s_leq,
    sigma,
)
from zerosum.groups import enumerate_elements, is_prime
from zerosum.search import enumerate_minimal_zero_sum
from zerosum.theorems import _sampled_cases, _two_copy_shortest, thm_1_10_claims

C32 = make_group([3, 3])
C33 = make_group([3, 3, 3])


class TestDavenportValue:
    def test_bundled_rows_win(self):
        assert davenport_value(C33) == (7, "BS07", False)
        assert davenport_value(make_group([5, 5, 5])) == (13, "S10", False)

    def test_known_family(self):
        D, source, conditional = davenport_value(make_group([2, 4]))
        assert (D, conditional) == (5, False)
        assert source == "D=D* family"

    def test_conditional_fallback(self):
        G = make_group([6, 6, 6, 6])
        D, source, conditional = davenport_value(G)
        assert D == 1 + 4 * 5
        assert conditional
        assert source == "assumed D=D*"


class TestTheorem18:
    def test_c33_claim(self, c33_computed_values):
        claim = check_thm_1_8(C33)
        assert claim.applies
        assert claim.k == 5
        assert claim.claimed_bound == 9
        assert claim.equality_expected
        assert not claim.conditional_on_d_star
        assert claim.verifiable_at_desk
        # desk verification: the bound is attained with equality
        assert c33_computed_values[5].value == 9

    def test_excluded_groups(self):
        for factors in ([2, 2, 2], [2, 2, 2, 2]):
            claim = check_thm_1_8(make_group(factors))
            assert not claim.applies
            assert claim.claimed_bound is None
            assert dict(claim.hypotheses)["group not C_2^3 or C_2^4"] is False

    def test_rank_one_excluded(self):
        claim = check_thm_1_8(make_group([9]))
        assert not claim.applies
        assert dict(claim.hypotheses)["rank >= 2"] is False

    def test_exponent_gate(self):
        claim = check_thm_1_8(make_group([2, 4]))  # D = 5, D-2 = 3 < exp = 4
        assert not claim.applies
        assert dict(claim.hypotheses)["D-2 >= exp"] is False

    @pytest.mark.parametrize("factors,expected", [([3, 3], 7), ([4, 4], 9)])
    def test_desk_equality(self, factors, expected):
        G = make_group(factors)
        claim = check_thm_1_8(G)
        assert claim.applies and claim.equality_expected
        assert claim.claimed_bound == expected
        assert s_leq(G, claim.k).value == expected


class TestLemma51:
    def qualifying(self):
        return Sequence.parse(C32, "1,0^2; 0,1^2; 1,1^2; 2,1")

    def test_flag_and_soundness(self):
        S = self.qualifying()
        assert check_lemma_5_1(C32, 4, S)  # C(5,3) = 10 != 0 mod 3
        assert min_zero_sum_length(S) <= 3

    def test_random_qualifying_sequences_are_short(self):
        rng = random.Random(17)
        elements = [C32.element((a, b)) for a in range(3) for b in range(3)]
        checked = 0
        attempts = 0
        while checked < 200 and attempts < 20000:
            attempts += 1
            S = Sequence.from_elements(C32, [rng.choice(elements) for _ in range(7)])
            try:
                flag = check_lemma_5_1(C32, 4, S)
            except InvalidInputError:
                continue  # fails the no-long-zero-sum precondition
            checked += 1
            assert flag  # the binomial only depends on (D, k, p) here
            assert min_zero_sum_length(S) <= 3
        assert checked == 200

    def test_preconditions(self):
        with pytest.raises(InvalidInputError):
            check_lemma_5_1(make_group([6]), 4, Sequence.parse(make_group([6]), "1^8"))
        with pytest.raises(InvalidInputError):
            check_lemma_5_1(C32, 3, self.qualifying())  # k < exp+1
        with pytest.raises(InvalidInputError):
            check_lemma_5_1(C32, 4, Sequence.parse(C32, "1,0^2; 0,1^2"))  # wrong length
        with pytest.raises(InvalidInputError):
            # length-7 zero-sum violates the [D+1, |S|] screen
            check_lemma_5_1(C32, 4, Sequence.parse(C32, "1,0^3; 0,1^3; 0,0"))

    @pytest.mark.parametrize("seq", ["1,0^3; 0,1^3; 1,1", "1,0^3; 0,1^3; 0,0"])
    def test_long_zero_sum_names_first_length(self, seq):
        # zero-sum lengths {3, 6} and {1, 3, 4, 6, 7}: 6 is the first above D = 5
        with pytest.raises(InvalidInputError, match="length 6 > D"):
            check_lemma_5_1(C32, 4, Sequence.parse(C32, seq))


class TestTheorem19:
    def test_c53_all_flags_true(self):
        G = make_group([5, 5, 5])
        claim = check_thm_1_9(G, 9)
        assert claim.applies
        assert all(flag for _, flag in claim.hypotheses)
        assert claim.k == 8
        assert claim.claimed_bound == 18
        # agrees exactly with the published value
        assert known_s_leq(G, 8).value == 18

    def test_window_hypothesis_fails(self):
        claim = check_thm_1_9(C33, 4)
        assert not claim.applies
        assert claim.claimed_bound is None
        name = "2k-D >= p+d-v for all |T| in [2k, 2D-k+1]"
        assert dict(claim.hypotheses)[name] is False

    def test_shape_errors(self):
        with pytest.raises(InvalidInputError):
            check_thm_1_9(make_group([6, 6]), 4)  # not a p-group
        with pytest.raises(InvalidInputError):
            check_thm_1_9(C33, 8)  # k > D
        with pytest.raises(InvalidInputError):
            check_thm_1_9(make_group([2, 2, 2, 2, 2]), 6)  # leading digit 3 > p-1

    @pytest.mark.parametrize("factors", [
        [2] * 4, [2] * 5, [3] * 3, [3] * 4, [5] * 2, [5] * 3,
        [2] * 11, [3] * 18,  # leading digits c1 = 3 and 4 above a power of p
    ])
    def test_matches_own_digit_loop(self, factors):
        def reference(G, k):  # the former check_thm_1_9 body, as (hypotheses, bound)
            p = G.p_group_prime()
            D = d_star(G)
            if not G.exponent + 1 <= k <= D:
                raise InvalidInputError(f"need k in [exp+1, D] = [{G.exponent + 1}, {D}], got {k}")
            c, d = divmod(k, p)
            if c < 1:
                raise InvalidInputError(f"k = {k} has no digit shape c1*p^(t+1)+d with c1 >= 1")
            t = 0
            c1 = c
            while c1 % p == 0:
                c1 //= p
                t += 1
            if c1 > p - 1:
                raise InvalidInputError(f"k = {k} has leading digit c1 = {c1} > p-1")
            worst_window = True
            for T_len in range(2 * k, 2 * D - k + 2):
                v = (T_len - k) % p
                if 2 * k - D < p + d - v:
                    worst_window = False
                    break
            hypotheses = (
                ("2k-D >= p+d-v for all |T| in [2k, 2D-k+1]", worst_window),
                ("2D-2k+1 < ((p-1)/2) p^(t+1)", 2 * (2 * D - 2 * k + 1) < (p - 1) * p ** (t + 1)),
                ("C(D, k-1) != 0 mod p", binom_mod_p(D, k - 1, p) != 0),
            )
            applies = all(flag for _, flag in hypotheses)
            return hypotheses, 2 * D - k + 1 if applies else None

        def outcome(f, G, k):
            try:
                return f(G, k)
            except InvalidInputError as exc:
                return str(exc)

        def current(G, k):
            claim = check_thm_1_9(G, k)
            return claim.hypotheses, claim.claimed_bound

        G = make_group(factors)
        for k in range(-1, d_star(G) + 3):
            assert outcome(current, G, k) == outcome(reference, G, k), k


class TestTheorem110:
    def test_case_i_desk(self):
        claim = check_thm_1_10("i", t=1)
        assert claim.group == make_group([2, 2])
        assert claim.k == 2
        assert claim.claimed_bound == 4
        assert claim.verifiable_at_desk
        assert s_leq(claim.group, claim.k).value == 4

    def test_case_iii_desk(self):
        claim = check_thm_1_10("iii", p=3, d=2)
        assert claim.group == C32
        assert claim.k == 3
        assert claim.claimed_bound == 7
        assert s_leq(claim.group, claim.k).value == 7

    def test_case_ii_flags_only(self):
        claim = check_thm_1_10("ii", p=5)
        assert claim.group == make_group([5, 5, 5, 5])
        assert claim.k == 10
        assert claim.claimed_bound == 2 * 17 - 11 + 1
        assert not claim.verifiable_at_desk

    def test_parameter_validation(self):
        with pytest.raises(InvalidInputError):
            check_thm_1_10("i", t=0)
        with pytest.raises(InvalidInputError):
            check_thm_1_10("ii", p=4)
        with pytest.raises(InvalidInputError):
            check_thm_1_10("ii", p=3)
        with pytest.raises(InvalidInputError):
            check_thm_1_10("iii", p=2, d=1)  # k-1 = 0 < p
        with pytest.raises(InvalidInputError):
            check_thm_1_10("iv")
        with pytest.raises(InvalidInputError):
            check_thm_1_10("i", t=1, p=3)


    def test_claims_match_case_rules(self):
        def reference(G):  # the case matcher the CLI used to carry
            if G.rank < 2 or not G.is_homocyclic() or not is_prime(G.exponent):
                return
            p, r = G.exponent, G.rank
            if p == 2:
                t = (r + 2).bit_length() - 2
                if t >= 1 and 2 ** (t + 1) == r + 2:
                    yield ("i", {"t": t})
            if p >= 5 and r == 4:
                yield ("ii", {"p": p})
            D = r * (p - 1) + 1
            if p <= (r - 1) * p <= D:
                yield ("iii", {"p": p, "d": r})

        matched = 0
        for n in (2, 3, 4, 5, 6, 7, 11, 13):
            for r in range(1, 13):
                G = make_group([n] * r)
                claims = thm_1_10_claims(G)
                assert claims == [check_thm_1_10(case, **params) for case, params in reference(G)]
                assert all(claim.group == G for claim in claims)
                matched += len(claims)
        assert matched == 45
        assert thm_1_10_claims(make_group([2, 4])) == []

    def test_case_claims_come_from_group_claims(self):
        grid = ([("i", {"t": t}) for t in range(1, 5)]
                + [("ii", {"p": p}) for p in (5, 7, 11, 13)]
                + [("iii", {"p": p, "d": d}) for p in (2, 3, 5, 7) for d in range(2, p + 2)])
        for case, params in grid:
            claim = check_thm_1_10(case, **params)
            assert claim.theorem == f"thm_1_10({case})"
            assert claim in thm_1_10_claims(claim.group)

    def test_shape_miss_names_group_and_case(self):
        with pytest.raises(InvalidInputError,
                           match=r"C3\^4 does not have the shape of Theorem 1.10 case ii"):
            check_thm_1_10("ii", p=3)
        # (d-1)p = 8 exceeds D(C_2^5) = 6.
        with pytest.raises(InvalidInputError,
                           match=r"C2\^5 does not have the shape of Theorem 1.10 case iii"):
            check_thm_1_10("iii", p=2, d=5)


class TestLemma36Property:
    def test_c32_exhaustive(self):
        report = lemma_3_6_property(C32)
        assert report.exhaustive
        assert report.cases == 216  # 24 minimal sequences x 9 elements
        assert report.passed

    def test_c23_sampled(self):
        report = lemma_3_6_property(make_group([2, 2, 2]), trials=500, seed=3)
        assert not report.exhaustive
        assert report.cases == 500
        assert report.passed

    @pytest.mark.parametrize("factors", [[4, 4], [3, 6]], ids=str)
    def test_exhaustive_reports_pinned(self, factors):
        G = make_group(factors)
        report = lemma_3_6_property(G)
        assert report.exhaustive
        assert report.cases == {16: 6528, 18: 9504}[G.order]  # 408 and 528 T's
        assert report.passed

    @staticmethod
    def minimal_sequences(G):
        D, _, conditional = davenport_value(G)
        assert not conditional
        found = enumerate_minimal_zero_sum(G, D - 1)
        assert found.complete
        return D, found.sequences

    @pytest.mark.parametrize("factors", [[3, 3], [2, 2, 2], [4, 4], [3, 6], [2, 4]], ids=str)
    def test_one_table_per_sequence_is_exact(self, factors):
        # Every g's shortest zero-sum length of T g^2, read from T's table,
        # against a table of T g^2 itself.  C2xC4 is outside the lemma and
        # has pairs with no zero-sum subsequence of length <= D-2.
        G = make_group(factors)
        D, sequences = self.minimal_sequences(G)
        elements = list(enumerate_elements(G))
        over = 0
        for T in sequences:
            got = _two_copy_shortest(T)
            assert got == [min_zero_sum_length(T.with_term(g, 2)) for g in elements]
            over += sum(length > D - 2 for length in got)
        assert (over > 0) == (G == make_group([2, 4]))

    def test_sampled_pairs_are_the_choice_draws(self):
        G = make_group([2, 2, 2])
        _, sequences = self.minimal_sequences(G)
        elements = list(enumerate_elements(G))
        rng = random.Random(3)
        drawn = [(rng.choice(sequences), rng.choice(elements)) for _ in range(500)]
        cases = list(_sampled_cases(sequences, elements, 500, 3))
        assert [(T, g) for T, g, _ in cases] == drawn
        assert [length for _, _, length in cases] == [
            min_zero_sum_length(T.with_term(g, 2)) for T, g in drawn
        ]

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_refused(self, trials):
        # No sampled pair would pass with cases=0.
        with pytest.raises(InvalidInputError, match="trials >= 1"):
            lemma_3_6_property(C32, trials=trials)

    def test_excluded_groups(self):
        with pytest.raises(InvalidInputError):
            lemma_3_6_property(make_group([7]))
        with pytest.raises(InvalidInputError):
            lemma_3_6_property(make_group([2, 4]))
        with pytest.raises(InvalidInputError):
            lemma_3_6_property(make_group([2, 6]))


class TestConjectureHarness:
    def test_bundled_c53(self):
        report = conjecture_harness(make_group([5, 5, 5]), source="bundled")
        assert report.d_value == 13
        assert report.k_g == 7
        assert report.conjecture_k_half is True
        assert report.monotone_consistent
        by_m = {row.m: row for row in report.rows}
        assert by_m[12].holds is True
        assert by_m[7].holds is True
        assert by_m[6].holds is False
        assert by_m[5].holds is False

    def test_computed_c33(self, c33_computed_values):
        cfg = SearchConfig(symmetry_reduction=True)
        report = conjecture_harness(C33, source="computed", cfg=cfg)
        assert report.d_value == 7
        assert report.k_g == 4
        assert report.conjecture_k_half is True
        values = {row.m: row.value for row in report.rows}
        assert values == {6: 8, 5: 9, 4: 10, 3: 17}
        # one exact-length row from published data, consistent with the tail
        assert any(r.k == 2 and r.value == 13 and r.consistent for r in report.kexp_rows)

    def test_computed_c32_threshold_at_exponent(self):
        report = conjecture_harness(C32, source="computed")
        assert report.k_g == 3 == C32.exponent
        assert report.conjecture_k_half is True  # (D+1)/2 = 3 as well

    def test_bundled_c27_unknown_with_counterexample_row(self):
        G = make_group([2] * 7)
        report = conjecture_harness(G, source="bundled")
        assert report.d_value == 8
        assert report.k_g is None
        assert report.conjecture_k_half is None
        assert report.monotone_consistent
        by_m = {row.m: row for row in report.rows}
        assert by_m[7].holds is True and by_m[7].value == 9
        assert by_m[5].holds is None and by_m[5].source == "missing"
        assert by_m[2].holds is False and by_m[2].value == 128
        # the exact-length row sits in the conjectured-short region but
        # exceeds 2D-1: recorded as inconsistent, no verdict implied
        row = next(r for r in report.kexp_rows if r.k == 3)
        assert row.value == 17 and row.threshold == 15
        assert row.region == "at_least_half"
        assert not row.consistent

    def test_bundled_requires_known_davenport(self):
        with pytest.raises(InvalidInputError):
            conjecture_harness(make_group([3, 3, 15]), source="bundled")

    def test_computed_requires_exact_davenport(self):
        with pytest.raises(InvalidInputError):
            conjecture_harness(make_group([6, 6, 6, 6]), source="computed")

    def test_unknown_source_rejected(self):
        with pytest.raises(InvalidInputError):
            conjecture_harness(C32, source="oracle")
