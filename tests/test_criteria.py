"""Congruence criteria for short zero-sum subsequences: binomial arithmetic,
the a_i table, digit-shape predictions, and the end-to-end guarantee."""

import dataclasses
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import zerosum
from zerosum import groups
from zerosum import (
    InvalidInputError,
    PDecomposition,
    Sequence,
    a_i,
    binom_mod_p,
    check_4_7,
    check_4_8,
    check_4_9,
    compute_i0,
    first_nonzero_a_index,
    gen_binom,
    make_group,
    min_zero_sum_length,
    predict_i0,
    row_transform_verify,
    sigma,
    zerosub_guarantee,
)
from zerosum.criteria import is_prime


class TestBinomialArithmetic:
    @given(st.integers(0, 200), st.integers(-5, 205), st.sampled_from([2, 3, 5, 7, 11]))
    def test_binom_mod_p_matches_comb(self, a, b, p):
        expected = math.comb(a, b) % p if 0 <= b <= a else 0
        assert binom_mod_p(a, b, p) == expected

    def test_binom_mod_p_examples(self):
        assert binom_mod_p(7, 2, 3) == 0
        assert binom_mod_p(5, 2, 7) == 3
        assert binom_mod_p(9, 0, 3) == 1
        assert binom_mod_p(3, 5, 3) == 0

    def test_binom_mod_p_requires_prime(self):
        with pytest.raises(InvalidInputError):
            binom_mod_p(5, 2, 6)

    def test_gen_binom_nonnegative_matches_comb(self):
        for n in range(0, 10):
            for j in range(0, 10):
                assert gen_binom(n, j) == math.comb(n, j)
        assert gen_binom(5, 2) == 10

    def test_gen_binom_negative_upper(self):
        for n in range(1, 8):
            for j in range(0, 8):
                assert gen_binom(-n, j) == (-1) ** j * math.comb(n + j - 1, j)

    def test_gen_binom_j_zero(self):
        assert gen_binom(-3, 0) == 1
        assert gen_binom(0, 0) == 1

    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert not is_prime(1)
        assert not is_prime(0)

    def test_is_prime_matches_trial_division(self):
        # The factorization is an independent trial division: it runs to the
        # end, where is_prime stops at the first divisor.
        assert all(
            is_prime(n) == (groups.factorize(n) == {n: 1}) for n in range(-5, 20001)
        )
        assert zerosum.is_prime is groups.is_prime


class TestAiTable:
    def test_a1_always_zero(self):
        for T_len in range(2, 20):
            for k in range(1, T_len + 1):
                assert a_i(T_len, k, 1) == 0

    def test_known_values(self):
        assert a_i(12, 6, 2) == 36
        assert a_i(6, 3, 2, mod=2) == 1

    def test_mod_consistency(self):
        rng = random.Random(3)
        for _ in range(100):
            T_len = rng.randrange(2, 40)
            k = rng.randrange(1, T_len + 1)
            i = rng.randrange(1, 10)
            p = rng.choice([2, 3, 5, 7])
            assert a_i(T_len, k, i) % p == a_i(T_len, k, i, mod=p)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            a_i(10, 0, 2)
        with pytest.raises(InvalidInputError):
            a_i(10, 11, 2)
        with pytest.raises(InvalidInputError):
            a_i(10, 5, 0)


class TestComputeI0:
    def test_reference_case(self):
        assert compute_i0(6, 3, 2, 3) == 2

    def test_requires_window(self):
        with pytest.raises(InvalidInputError):
            compute_i0(10, 3, 3, 5)  # 2k = 6 < D+2 = 7

    def test_never_one(self):
        # a_1 = 0 identically, so i0 is never 1
        for T_len in range(8, 30):
            i0 = compute_i0(T_len, 6, 3, 8)
            assert i0 is None or i0 >= 2

    def test_matches_unwindowed_scan_within_window(self):
        for T_len, k, p, D in [(11, 5, 3, 8), (14, 5, 3, 8), (20, 9, 5, 13), (25, 9, 5, 13)]:
            window = 2 * k - D
            scan = first_nonzero_a_index(T_len, k, p, limit=window)
            assert compute_i0(T_len, k, p, D) == scan


def exact_first_nonzero(T_len, k, p, limit):
    """From the exact a_i (math.comb, no mod-p arithmetic)."""
    return next((i for i in range(1, limit + 1) if a_i(T_len, k, i) % p), None)


# Primes with a cached Pascal table, and two above PASCAL_TABLE_MAX_P.
SCAN_PRIMES = (2, 3, 5, 7, 11, 13, 131, 257)


class TestScanKernelExact:
    """The digit-stepping scan against exact integer a_i."""

    def scan_cases(self, p, rng):
        # Every (T_len, k) with T_len <= 40, then random pairs up to 600.
        # Limits run past k, where the first term vanishes, and across
        # several borrows and carries (a few multiples of p).
        for T_len in range(1, 41):
            for k in range(1, T_len + 1):
                yield T_len, k, k + 2 * min(p, 20)
        for _ in range(300):
            T_len = rng.randint(1, 600)
            k = rng.randint(1, T_len)
            yield T_len, k, rng.randint(0, k + 4 * min(p, 20))

    @pytest.mark.parametrize("p", SCAN_PRIMES)
    def test_first_nonzero_a_index_matches_exact(self, p):
        rng = random.Random(p)
        for T_len, k, limit in self.scan_cases(p, rng):
            expected = exact_first_nonzero(T_len, k, p, limit)
            assert first_nonzero_a_index(T_len, k, p, limit) == expected, (T_len, k, limit)

    @pytest.mark.parametrize("p", SCAN_PRIMES)
    def test_compute_i0_matches_exact(self, p):
        rng = random.Random(1000 + p)
        for T_len, k, _ in self.scan_cases(p, rng):
            if k < 2:
                continue
            window = rng.randint(2, 2 * k - 1)  # D = 2k - window in [1, 2k - 2]
            D = 2 * k - window
            expected = exact_first_nonzero(T_len, k, p, window)
            assert compute_i0(T_len, k, p, D) == expected, (T_len, k, D)

    def test_zerosub_guarantee_a_values_match_exact(self):
        rng = random.Random(5)
        groups_and_d = [((3, 3), 5), ((2, 2, 2), 4)] + [((p,), p) for p in (2, 3, 5, 7, 11, 13)]
        for factors, D in groups_and_d:
            G = make_group(list(factors))
            p = factors[0]
            for _ in range(30):
                # a_values depend on |T| alone, so T is all zeros.  The
                # window 2k - D spans several borrows and carries.
                k = rng.randint((D + 3) // 2, D + 40)
                T_len = rng.randint(2 * k, 2 * k + 3 * p)
                T = Sequence.from_pairs(G, [(G.zero(), T_len)])
                report = zerosub_guarantee(T, k, p, D)
                window = range(1, 2 * k - D + 1)
                assert report.a_values == tuple((i, a_i(T_len, k, i) % p) for i in window)
                assert report.i0 == exact_first_nonzero(T_len, k, p, 2 * k - D)


class TestDecomposition:
    def test_from_lengths_round_trip(self):
        dec = PDecomposition(5, 25, 9)
        assert (dec.u, dec.v, dec.c, dec.d) == (3, 1, 1, 4)
        assert dec.t == 0 and dec.c1 == 1
        assert dec.has_refined_shape and (dec.u1, dec.u2) == (3, 0)

    def test_refined_shape_absent(self):
        dec = PDecomposition(3, 14, 5)
        assert not dec.has_refined_shape
        assert dec.u1 is None and dec.u2 is None

    def test_invariants_enforced(self):
        # The digit fields are computed, so none can be passed or set.
        with pytest.raises(TypeError):
            PDecomposition(p=3, T_len=11, k=5, u=9, v=0, c=1, d=2, t=0, c1=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            PDecomposition(3, 11, 5).u = 9

    def test_requires_prime(self):
        with pytest.raises(InvalidInputError):
            PDecomposition(4, 11, 5)

    def test_computed_fields_decompose(self):
        # The computed digits satisfy their defining equations and ranges,
        # and the refined fields are present exactly when the shape exists.
        for p in (2, 3, 5, 7):
            for T_len in range(1, 80):
                for k in range(1, T_len + 1):
                    dec = PDecomposition(p, T_len, k)
                    assert (dec.u, dec.v) == divmod(T_len - k, p)
                    assert (dec.c, dec.d) == divmod(k, p)
                    c_free, t = dec.c, 0
                    while c_free and c_free % p == 0:
                        c_free //= p
                        t += 1
                    if not 1 <= c_free <= p - 1:
                        assert dec.t is dec.c1 is dec.u1 is dec.u2 is None
                        continue
                    pt = p**t
                    assert (dec.t, dec.c1) == (t, c_free) and dec.c1 * pt == dec.c
                    assert (dec.u1 is None) == (not 1 <= dec.u // pt <= p - 1)
                    if dec.u1 is None:
                        assert dec.u2 is None
                    else:
                        assert 1 <= dec.u1 <= p - 1 and 0 <= dec.u2 <= pt - 1
                        assert dec.u1 * pt + dec.u2 == dec.u

    @pytest.mark.parametrize("T_len,k", [(5, 0), (4, 5), (3, -1)])
    def test_from_lengths_rejects_bad_lengths(self, T_len, k):
        with pytest.raises(InvalidInputError, match="need 1 <= k <= T_len"):
            PDecomposition(3, T_len, k)

    @pytest.mark.parametrize(
        "fields,message",
        [
            (dict(p=4, T_len=11, k=5), "p = 4 is not prime"),
            (dict(p=3, T_len=5, k=0), "need 1 <= k <= T_len"),
            (dict(p=3, T_len=4, k=5), "need 1 <= k <= T_len"),
        ],
    )
    def test_direct_construction_keeps_every_check(self, fields, message):
        with pytest.raises(InvalidInputError, match=message):
            PDecomposition(**fields)


class TestPredictI0:
    def test_exact_case(self):
        pred = predict_i0(PDecomposition(3, 11, 5))
        assert (pred.kind, pred.value) == ("exact", 2)
        assert first_nonzero_a_index(11, 5, 3, 40) == 2

    def test_needs_l0_cases(self):
        pred = predict_i0(PDecomposition(5, 20, 9))
        assert (pred.kind, pred.value, pred.l0) == ("needs_l0", 8, 1)
        assert first_nonzero_a_index(20, 9, 5, 40) == 8

        pred = predict_i0(PDecomposition(5, 25, 9))
        assert (pred.kind, pred.value, pred.l0) == ("needs_l0", 18, 3)
        assert first_nonzero_a_index(25, 9, 5, 40) == 18

    def test_lower_bound_case(self):
        dec = PDecomposition(3, 14, 5)
        pred = predict_i0(dec)
        assert (pred.kind, pred.value) == ("lower_bound", 5)
        # the bound is p + d - v and the true first index respects it
        assert pred.value == 3 + dec.d - dec.v
        assert first_nonzero_a_index(14, 5, 3, 40) == 6 >= 5

    def test_none_case(self):
        pred = predict_i0(PDecomposition(2, 6, 3))
        assert pred.kind == "none"


class TestSufficientFlags:
    def test_check_4_7(self):
        assert check_4_7(PDecomposition(3, 11, 5))

    def test_check_4_7_requires_refined_shape(self):
        with pytest.raises(InvalidInputError):
            check_4_7(PDecomposition(3, 14, 5))

    def test_check_4_8_implies_4_7(self):
        # scan a grid: wherever the stronger digit condition holds, the
        # signed-binomial test must hold too
        hits = 0
        for p in (3, 5, 7):
            for T_len in range(8, 60):
                for k in range(4, T_len // 2 + 1):
                    try:
                        dec = PDecomposition(p, T_len, k)
                    except InvalidInputError:
                        continue
                    if not dec.has_refined_shape:
                        continue
                    if check_4_8(dec):
                        hits += 1
                        assert check_4_7(dec)
        assert hits > 0

    def test_check_4_9(self):
        assert check_4_9(PDecomposition(3, 14, 7))
        assert check_4_9(PDecomposition(2, 6, 3))
        # a false case: flag congruent to zero
        assert not check_4_9(PDecomposition(3, 8, 4))

    def test_check_4_9_predicts_i0_two(self):
        cases = 0
        for p in (2, 3, 5):
            for T_len in range(6, 40):
                for k in range(3, T_len // 2 + 1):
                    try:
                        ok = check_4_9(PDecomposition(p, T_len, k))
                    except InvalidInputError:
                        continue
                    if ok:
                        cases += 1
                        assert first_nonzero_a_index(T_len, k, p, limit=2) == 2
        assert cases > 0

    def test_check_4_9_shape_validation(self):
        with pytest.raises(InvalidInputError):
            # k-1 = 3 has t = 1 but v_p alignment fails on u1
            check_4_9(PDecomposition(3, 14, 4))
        with pytest.raises(InvalidInputError):
            check_4_9(PDecomposition(3, 10, 3))  # t = v_3(2) = 0 < 1
        with pytest.raises(InvalidInputError, match="k = 1 mod p"):
            check_4_9(PDecomposition(3, 10, 3))
        with pytest.raises(InvalidInputError, match="c1 and u1"):
            check_4_9(PDecomposition(3, 14, 4))
        with pytest.raises(InvalidInputError, match="not prime"):
            check_4_9(PDecomposition(4, 1, 1))

    def test_check_4_9_matches_own_digit_loop(self):
        def reference(p, T_len, k):  # the former check_4_9 body
            if k < 2 or T_len < k:
                raise InvalidInputError("need 2 <= k <= T_len")
            m = k - 1
            t = 0
            while m % p == 0:
                m //= p
                t += 1
            if t < 1:
                raise InvalidInputError("need k = 1 mod p")
            c1 = m
            if not 1 <= c1 <= p - 1:
                raise InvalidInputError("need c1 in [1, p-1]")
            u1, _v1 = divmod(T_len - k, p**t)
            if not 1 <= u1 <= p - 1:
                raise InvalidInputError("need u1 in [1, p-1]")
            return (binom_mod_p(u1, c1 - 1, p) + binom_mod_p(u1 + 1, c1, p)) % p != 0

        def outcome(f, *args):
            try:
                return f(*args)
            except InvalidInputError:
                return "raises"

        def current(p, T_len, k):
            return check_4_9(PDecomposition(p, T_len, k))

        inputs = [(p, T_len, k) for p in (2, 3, 5, 7) for T_len in range(150)
                  for k in range(-1, T_len + 2)]
        diffs = [args for args in inputs if outcome(current, *args) != outcome(reference, *args)]
        assert not diffs
        assert sum(outcome(current, *args) is True for args in inputs) > 100


class TestRowTransform:
    def test_hand_cases(self):
        assert row_transform_verify(2, 1, 3, 2, 1, 2)
        assert row_transform_verify(-1, 2, 4, 3, 2, 3)

    def test_lambda_zero(self):
        assert row_transform_verify(1, 3, 3, 2, 2, 0)

    def test_grid(self):
        rng = random.Random(9)
        for _ in range(60):
            assert row_transform_verify(
                rng.randint(-4, 4),
                rng.randint(1, 8),
                rng.randint(1, 8),
                rng.randint(1, 8),
                rng.randint(1, 8),
                rng.randint(0, 8),
            )

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            row_transform_verify(1, 0, 3, 2, 1, 2)
        with pytest.raises(InvalidInputError):
            row_transform_verify(1, 3, 3, 2, 1, -1)


class TestZerosubGuarantee:
    def setup_method(self):
        self.G = make_group([3, 3])
        self.T = Sequence.parse(self.G, "1,0^3; 0,1^3; 1,1; 2,2")

    def test_report_contents(self):
        report = zerosub_guarantee(self.T, 4, 3, 5)
        assert report.i0 == 2
        assert report.guarantees_short
        assert report.a_values == ((1, 0), (2, 1), (3, 2))
        assert report.l4_7 is True
        assert report.c4_8 is False
        assert report.l4_9 is False

    def test_guarantee_is_sound(self):
        report = zerosub_guarantee(self.T, 4, 3, 5)
        assert report.guarantees_short
        assert min_zero_sum_length(self.T) <= 3

    def test_rejects_nonzero_sum(self):
        T = Sequence.parse(self.G, "1,0^3; 0,1^3; 1,1; 2,1")
        assert not sigma(T).is_zero()
        with pytest.raises(InvalidInputError):
            zerosub_guarantee(T, 4, 3, 5)

    def test_rejects_wrong_prime(self):
        with pytest.raises(InvalidInputError):
            zerosub_guarantee(self.T, 4, 2, 5)

    def test_flag_4_9_set_exactly_where_check_4_9_applies(self):
        for p in (2, 3, 5):
            G = make_group([p])
            for T_len in range(4, 40):
                T = Sequence.from_pairs(G, [(G.zero(), T_len)])
                for k in range(2, T_len // 2 + 1):
                    try:
                        expected = check_4_9(PDecomposition(p, T_len, k))
                    except InvalidInputError:
                        expected = None
                    assert zerosub_guarantee(T, k, p, 2).l4_9 == expected

    def test_rejects_small_window_or_length(self):
        with pytest.raises(InvalidInputError):
            zerosub_guarantee(self.T, 3, 3, 5)  # 2k < D+2
        short = Sequence.parse(self.G, "1,0^3; 0,1^3")
        with pytest.raises(InvalidInputError):
            zerosub_guarantee(short, 4, 3, 5)  # |T| < 2k
