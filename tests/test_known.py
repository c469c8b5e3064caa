"""Bundled reference values: file parsing, lookup precedence, and the
closed-form families."""

import pytest

from zerosum import (
    InvalidInputError,
    known_davenport,
    known_s_kexp,
    known_s_leq,
    load_bundled,
    make_group,
)
from zerosum.known import _parse_rows

C33 = make_group([3, 3, 3])
C53 = make_group([5, 5, 5])


class TestBundledFile:
    def test_default_rows_load(self):
        rows = load_bundled()
        assert len(rows) == 18
        assert all(row.source for row in rows)
        leq_c53 = sorted(
            (row.param, row.value) for row in rows if row.group == C53 and row.invariant == "s_leq"
        )
        assert leq_c53 == [
            (5, 33), (6, 24), (7, 19), (8, 18), (9, 17),
            (10, 15), (11, 14), (12, 14), (13, 13),
        ]

    def test_custom_file(self, tmp_path):
        f = tmp_path / "values.txt"
        f.write_text("# comment\n\nC7^2; davenport; -; 13; XYZ99\n")
        rows = _parse_rows(f.read_text(), str(f))
        assert len(rows) == 1
        assert rows[0].group == make_group([7, 7])
        assert rows[0].param is None
        assert (rows[0].value, rows[0].source) == (13, "XYZ99")

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ("C3; davenport; -; 3", "expected 5 fields"),
            ("C3; dvnprt; -; 3; A", "unknown invariant"),
            ("C3; s_leq; two; 3; A", "invalid literal"),
            ("C3; s_leq; 2; x; A", "invalid literal"),
            ("C3; davenport; -; 3; ", "empty source"),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, tmp_path, line, fragment):
        f = tmp_path / "bad.txt"
        f.write_text("# header\n" + line + "\n")
        with pytest.raises(InvalidInputError) as err:
            _parse_rows(f.read_text(), str(f))
        assert ":2:" in str(err.value)
        assert fragment in str(err.value)


class TestKnownDavenport:
    def test_bundled(self):
        hit = known_davenport(C33)
        assert (hit.value, hit.source) == (7, "BS07")

    def test_family(self):
        hit = known_davenport(make_group([2, 4]))
        assert (hit.value, hit.source) == (5, "D=D* family")

    def test_unknown(self):
        assert known_davenport(make_group([3, 3, 15])) is None


class TestKnownSLeq:
    def test_bundled_rows(self):
        assert (known_s_leq(C33, 3).value, known_s_leq(C33, 3).source) == (17, "BS07")
        assert known_s_leq(C33, 7).value == 7
        assert known_s_leq(C53, 9).value == 17

    def test_cap_above_davenport(self):
        hit = known_s_leq(C33, 9)
        assert hit.value == 7
        assert hit.source == "k >= D cap (BS07)"

    def test_exponent_two_family(self):
        assert known_s_leq(make_group([2, 2, 2, 2]), 2).value == 16
        assert known_s_leq(make_group([2, 2, 2, 2]), 3).value == 9
        # the r+2 plateau: ceil((2r+2)/3) <= k <= r
        assert known_s_leq(make_group([2, 2, 2, 2]), 4).value == 6
        assert known_s_leq(make_group([2] * 5), 4).value == 7
        assert known_s_leq(make_group([2] * 5), 5).value == 7
        assert known_s_leq(make_group([2] * 7), 6).value == 9

    def test_rank_two_formula(self):
        G = make_group([4, 4])  # D = 7
        for k in range(4, 8):
            assert known_s_leq(G, k).value == 14 - k
        assert known_s_leq(G, 3) is None  # below the exponent
        assert known_s_leq(G, 9).value == 7  # capped at D

    def test_prime_power_formulas(self):
        # D - 2 row for C_p^r with 3 <= r < p
        hit = known_s_leq(C53, 11)
        assert hit.value == 14  # bundled S10 row wins ...
        assert hit.source == "S10"
        # ... and agrees with the closed form when the table is absent
        assert known_s_leq(make_group([7, 7, 7]), 17).value == 20
        # rank-3 prime-power family: C_9^3, k = D - 9
        assert known_s_leq(make_group([9, 9, 9]), 16).value == 34

    def test_non_homocyclic_not_matched(self):
        # regression: C_3+C_3+C_9 shares the exponent digit shape but is not
        # homocyclic, so no closed form applies
        assert known_s_leq(make_group([3, 3, 9]), 4) is None

    def test_unknown_returns_none(self):
        assert known_s_leq(make_group([5, 5, 5, 5, 5]), 6) is None

    def test_validates_k(self):
        with pytest.raises(InvalidInputError):
            known_s_leq(C33, 0)


class TestKnownSKexp:
    def test_bundled(self):
        assert (known_s_kexp(C33, 2).value, known_s_kexp(C33, 2).source) == (13, "GT")
        assert known_s_kexp(make_group([2, 2, 2]), 1).value == 9

    def test_odd_rank_exponent_two_family(self):
        assert (known_s_kexp(make_group([2] * 7), 3).value) == 17
        assert known_s_kexp(make_group([2] * 11), 5).value == 25
        # even k in the same shape is not covered
        assert known_s_kexp(make_group([2] * 5), 2) is None

    def test_unknown(self):
        assert known_s_kexp(C53, 2) is None

    def test_validates_k(self):
        with pytest.raises(InvalidInputError):
            known_s_kexp(C33, 0)
