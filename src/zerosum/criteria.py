"""Binomial congruence criteria for shortening zero-sum subsequences.

Given a zero-sum sequence T over a p-group and a target bound k, the signed
binomial sums a_i = C(|T|-k, k-i) + (-1)^i C(|T|-k+i-1, k-1) decide whether T
must contain a zero-sum subsequence of length <= k-1: it does as soon as some
a_i with 1 <= i <= 2k - D is nonzero mod p (D the Davenport constant, with
|T| >= 2k and 2k >= D+2).  This module computes the a_i, locates the first
nonzero index i0, predicts i0 from base-p digit data alone, and provides the
cheap sufficient tests check_4_7 / check_4_8 / check_4_9 for i0 to land
inside small windows.  The index names of those tests and of the row
transform are project-local criterion identifiers.

Single binomials mod p go through Lucas' theorem digit by digit (_binom).
The a_i scans (compute_i0, first_nonzero_a_index and the window table of
zerosub_guarantee) share one kernel, _nonzero_a, which steps both terms one
index at a time: it reads the low-digit binomial from a cached p x p Pascal
table mod p (for p <= PASCAL_TABLE_MAX_P) and recomputes the high-part
factor only on a borrow or a carry, once every p steps.  predict_i0 and the
sufficient tests keep plain _binom, so the sweeps compare two separately
computed answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial

from .errors import InvalidInputError
from .groups import is_prime
from .sequences import Sequence, sigma

# Scan caps.  The l0 scan is theoretically unbounded; this cap is far beyond
# anything the bundled sweeps reach and a capped miss surfaces as value None
# rather than a wrong answer.
L0_SCAN_CAP = 1000
# Primes up to this share one cached p x p Pascal table mod p (at most
# 16,129 entries); a scan with a larger prime computes only the low-digit
# binomials it visits.
PASCAL_TABLE_MAX_P = 127


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise InvalidInputError(f"p = {p} is not prime")


def _binom(a: int, b: int, p: int) -> int:
    """C(a, b) mod p for a >= 0 and p prime, unchecked: the product of
    C(a_i, b_i) over matching base-p digits.  b < 0 or b > a gives 0."""
    if b < 0 or b > a:
        return 0
    result = 1
    while b:
        result = result * comb(a % p, b % p) % p
        if result == 0:
            return 0
        a //= p
        b //= p
    return result


def binom_mod_p(a: int, b: int, p: int) -> int:
    """C(a, b) mod p by base-p digits: the product of C(a_i, b_i) over
    matching digits.  b < 0 or b > a gives 0."""
    _require_prime(p)
    if a < 0:
        raise InvalidInputError(f"need a >= 0, got {a}")
    return _binom(a, b, p)


def gen_binom(n: int, j: int) -> int:
    """Generalized binomial coefficient n(n-1)...(n-j+1)/j! for any integer
    n and j >= 0."""
    if j < 0:
        raise InvalidInputError(f"need j >= 0, got {j}")
    num = 1
    for s in range(j):
        num *= n - s
    return num // factorial(j)


def a_i(T_len: int, k: int, i: int, mod: int | None = None) -> int:
    """The signed sum C(T_len-k, k-i) + (-1)^i C(T_len-k+i-1, k-1), exact or
    reduced mod a prime."""
    if i < 1:
        raise InvalidInputError(f"need i >= 1, got {i}")
    if k < 1 or T_len < k:
        raise InvalidInputError("need 1 <= k <= T_len")
    m = T_len - k
    if mod is None:
        first = comb(m, k - i) if 0 <= k - i <= m else 0
        return first + (-1) ** i * comb(m + i - 1, k - 1)
    _require_prime(mod)
    first = _binom(m, k - i, mod)
    second = _binom(m + i - 1, k - 1, mod)
    return (first - second if i & 1 else first + second) % mod


@lru_cache(maxsize=None)
def _pascal_mod(p: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(rows, cols) of Pascal's triangle mod p on [0, p-1]^2:
    rows[x][y] = cols[y][x] = C(x, y) mod p, zero for y > x."""
    rows = [(1,) + (0,) * (p - 1)]
    for _ in range(1, p):
        prev = rows[-1]
        rows.append((1,) + tuple((prev[y - 1] + prev[y]) % p for y in range(1, p)))
    return tuple(rows), tuple(zip(*rows))


def _nonzero_a(m: int, k: int, p: int, limit: int):
    """Yield (i, a_i mod p) for each i in [1, limit], in order, with a_i
    nonzero mod p; m = T_len - k, with m >= 0, k >= 1 and p prime, unchecked.

    Both terms are Lucas products C(a, b) = C(a mod p, b mod p) *
    C(a // p, b // p) mod p.  The first term C(m, k-i) keeps its top while
    its bottom falls by one per step; the second, C(m+i-1, k-1), keeps its
    bottom while its top rises by one.  So each low-digit factor is a table
    read, and the two high factors stay fixed over a run of steps that ends
    at the next borrow or carry (at most p steps), where the one that moved
    is recomputed.  A run whose high factors are both 0 mod p has every a_i
    zero and is skipped whole.
    """
    m_hi, m_lo = divmod(m, p)
    k_hi, k_lo = divmod(k - 1, p)
    b_hi, b_lo = k_hi, k_lo  # bottom k-i of the first term, at i = 1
    t_hi, t_lo = m_hi, m_lo  # top m+i-1 of the second term, at i = 1
    if p <= PASCAL_TABLE_MAX_P:
        rows, cols = _pascal_mod(p)
        low1, low2 = rows[m_lo], cols[k_lo]
    else:  # only the low digits this scan visits
        visited = range(min(limit, p))
        low1 = {y: comb(m_lo, y) % p for y in ((k - 1 - j) % p for j in visited)}
        low2 = {x: comb(x, k_lo) % p for x in ((m + j) % p for j in visited)}
    high1 = high2 = _binom(m_hi, k_hi, p)
    i = 1
    while i <= limit:
        run = min(b_lo + 1, p - t_lo, limit + 1 - i)
        if high1 or high2:
            for j in range(run):
                first = low1[b_lo - j] * high1
                second = low2[t_lo + j] * high2
                a = (first - second if (i + j) & 1 else first + second) % p
                if a:
                    yield i + j, a
        i += run
        b_lo -= run
        if b_lo < 0:  # borrow; a negative bottom gives 0 from here on
            b_lo += p
            b_hi -= 1
            high1 = _binom(m_hi, b_hi, p)
        t_lo += run
        if t_lo == p:  # carry
            t_lo = 0
            t_hi += 1
            high2 = _binom(t_hi, k_hi, p)


def _first_nonzero(T_len: int, k: int, p: int, limit: int) -> int | None:
    """The prefix scan both public forms share: least i in [1, limit] with
    a_i nonzero mod p, or None.  p must already be checked prime.

    It takes the first index the digit-stepping kernel _nonzero_a yields:
    low-digit binomials are table reads, the high-part factors change only
    on a borrow or a carry, and a run where both vanish is skipped whole."""
    if limit < 1:
        return None
    if k < 1 or T_len < k:
        raise InvalidInputError("need 1 <= k <= T_len")
    for i, _ in _nonzero_a(T_len - k, k, p, limit):
        return i
    return None


def compute_i0(T_len: int, k: int, p: int, D: int) -> int | None:
    """Least i in the usable window [1, 2k-D] with a_i nonzero mod p, or
    None when every a_i in the window vanishes: the windowed form of the
    prefix scan."""
    _require_prime(p)
    if 2 * k < D + 2:
        raise InvalidInputError(f"need 2k >= D+2, got 2k = {2 * k}, D = {D}")
    return _first_nonzero(T_len, k, p, 2 * k - D)


def first_nonzero_a_index(T_len: int, k: int, p: int, limit: int) -> int | None:
    """Least i in [1, limit] with a_i nonzero mod p, ignoring any window.
    Serves as the oracle the window-free predictions are tested against."""
    _require_prime(p)
    return _first_nonzero(T_len, k, p, limit)


@dataclass(frozen=True)
class PDecomposition:
    """Base-p digit data of the pair (T_len, k): T_len - k = u*p + v and
    k = c*p + d with v, d in [0, p-1].

    When c = c1 * p^t with p not dividing c1 and c1 <= p-1, the refined
    fields t, c1 and the split u = u1 * p^t + u2 (kept only when
    u1 in [1, p-1]) are populated; otherwise they are None.  Built from
    (p, T_len, k) alone; the other fields are computed from them.
    """

    p: int
    T_len: int
    k: int
    u: int = field(init=False)
    v: int = field(init=False)
    c: int = field(init=False)
    d: int = field(init=False)
    t: int | None = field(init=False)
    c1: int | None = field(init=False)
    u1: int | None = field(init=False)
    u2: int | None = field(init=False)

    def __post_init__(self):
        p = self.p
        _require_prime(p)
        if self.k < 1 or self.T_len < self.k:
            raise InvalidInputError("need 1 <= k <= T_len")
        u, v = divmod(self.T_len - self.k, p)
        c, d = divmod(self.k, p)
        t = c1 = u1 = u2 = None
        if c >= 1:
            t_try = 0
            c1_try = c
            while c1_try % p == 0:
                c1_try //= p
                t_try += 1
            if c1_try <= p - 1:
                t, c1 = t_try, c1_try
                hi, lo = divmod(u, p**t_try)
                if 1 <= hi <= p - 1:
                    u1, u2 = hi, lo
        for name, value in zip(("u", "v", "c", "d", "t", "c1", "u1", "u2"),
                               (u, v, c, d, t, c1, u1, u2)):
            object.__setattr__(self, name, value)

    @property
    def has_refined_shape(self) -> bool:
        return self.u1 is not None


@dataclass(frozen=True)
class I0Prediction:
    """Predicted location of the first nonzero a_i.

    kind is one of "exact" (i0 equals value), "needs_l0" (i0 = d-v + l0*p
    with l0 the least l >= 1 making C(u, c-l) + (-1)^(1+l) C(u+l, c) nonzero
    mod p; value is resolved, or None if the capped scan missed),
    "lower_bound" (i0 >= value, which is p+d-v) and "none" (no prediction:
    d <= v).
    """

    kind: str
    value: int | None
    l0: int | None = None


def predict_i0(dec: PDecomposition) -> I0Prediction:
    """Locate the first nonzero a_i from digit data alone, for d >= v+1.

    With C(u, c) nonzero mod p the answer sits at d-v when that is even, at
    d-v+1 when odd with v+d != p, and otherwise at d-v + l0*p.  With C(u, c)
    zero mod p every a_i below p+d-v vanishes.
    """
    p, u, v, c, d = dec.p, dec.u, dec.v, dec.c, dec.d
    if d <= v:
        return I0Prediction(kind="none", value=None)
    if _binom(u, c, p) != 0:
        if (d - v) % 2 == 0:
            return I0Prediction(kind="exact", value=d - v)
        if v + d != p:
            return I0Prediction(kind="exact", value=d - v + 1)
        l0 = None
        for l in range(1, L0_SCAN_CAP + 1):
            if (_binom(u, c - l, p) + (-1) ** (1 + l) * _binom(u + l, c, p)) % p:
                l0 = l
                break
        value = d - v + l0 * p if l0 is not None else None
        return I0Prediction(kind="needs_l0", value=value, l0=l0)
    return I0Prediction(kind="lower_bound", value=p + d - v)


def check_4_7(dec: PDecomposition) -> bool:
    """Sufficient test for i0 <= p+d-v (needs the refined digit shape):
    C(u1, c1-1) + (-1)^(p+d-v) C(u1+1, c1) nonzero mod p."""
    if not dec.has_refined_shape:
        raise InvalidInputError("decomposition lacks the refined digit shape")
    p = dec.p
    sign = -1 if (p + dec.d - dec.v) % 2 else 1
    return (_binom(dec.u1, dec.c1 - 1, p) + sign * _binom(dec.u1 + 1, dec.c1, p)) % p != 0


def check_4_8(dec: PDecomposition) -> bool:
    """Digit-size test implying check_4_7: u1 + c1 + 1 < p."""
    if not dec.has_refined_shape:
        raise InvalidInputError("decomposition lacks the refined digit shape")
    return dec.u1 + dec.c1 + 1 < dec.p


def check_4_9(dec: PDecomposition) -> bool:
    """Sufficient test for i0 = 2 in the k = 1 mod p^t shape (t >= 1):
    with k = c1*p^t + 1 and T_len - k = u1*p^t + v1, the test is
    C(u1, c1-1) + C(u1+1, c1) nonzero mod p.  Valid for p = 2 as well.
    The shape is d = 1 with the refined digit shape."""
    if dec.d != 1:
        raise InvalidInputError(f"need k = 1 mod p, got k = {dec.k}")
    if not dec.has_refined_shape:
        raise InvalidInputError(
            f"need c1 and u1 in [1, p-1], got k = {dec.k}, T_len = {dec.T_len}")
    p = dec.p
    return (_binom(dec.u1, dec.c1 - 1, p) + _binom(dec.u1 + 1, dec.c1, p)) % p != 0


def row_transform_verify(x: int, c: int, k: int, u_1: int, u_2: int, lam: int) -> bool:
    """Check the cascaded row-subtraction identity on the (lam+1) x (k+3)
    matrix with top row (1+x, 1, ..., 1) and row j = (C(c+u_1, j),
    C(c+u_2, j), C(c+k, j), C(c+k-1, j), ..., C(c, j)).

    Applying c passes of row_{j} -= row_{j-1} from top to bottom (each pass
    reading the rows already updated in that pass) must produce the closed
    form whose row j is (C(u_1, j) + (-1)^j x C(c+j-1, j), C(u_2, j),
    C(k, j), ..., C(0, j)).  All arithmetic is exact.
    """
    if c < 1 or k < 1 or u_1 < 1 or u_2 < 1 or lam < 0:
        raise InvalidInputError("need c, k, u_1, u_2 >= 1 and lam >= 0")

    def base_row(j: int) -> list[int]:
        return [comb(c + u_1, j), comb(c + u_2, j)] + [comb(c + k - s, j) for s in range(k + 1)]

    A = [[1 + x] + [1] * (k + 2)] + [base_row(j) for j in range(1, lam + 1)]
    for _ in range(c):
        for j in range(lam):
            A[j + 1] = [a - b for a, b in zip(A[j + 1], A[j])]

    def closed_row(j: int) -> list[int]:
        col0 = comb(u_1, j) + (-1) ** j * x * comb(c + j - 1, j)
        return [col0, comb(u_2, j)] + [comb(k - s, j) if k - s >= j else 0 for s in range(k + 1)]

    expected = [[1 + x] + [1] * (k + 2)] + [closed_row(j) for j in range(1, lam + 1)]
    return A == expected


@dataclass(frozen=True)
class CriterionReport:
    """Everything the congruence criterion says about one (T, k) pair."""

    p: int
    T_len: int
    k: int
    D: int
    a_values: tuple[tuple[int, int], ...]
    i0: int | None
    guarantees_short: bool
    l4_7: bool | None
    c4_8: bool | None
    l4_9: bool | None


def zerosub_guarantee(T: Sequence, k: int, p: int, D: int) -> CriterionReport:
    """Run the criterion on a zero-sum sequence T over a p-group: tabulate
    a_i mod p for the window i in [1, 2k-D], find i0, and when i0 exists
    conclude that T has a zero-sum subsequence of length <= k-1.  The three
    sufficient-test flags are filled in where their digit shapes apply, None
    otherwise."""
    _require_prime(p)
    prime = T.group.p_group_prime()
    if prime != p:
        raise InvalidInputError(f"sequence group {T.group} is not a {p}-group")
    if not sigma(T).is_zero():
        raise InvalidInputError("T must be a zero-sum sequence")
    if 2 * k < D + 2:
        raise InvalidInputError(f"need 2k >= D+2, got 2k = {2 * k}, D = {D}")
    if len(T) < 2 * k:
        raise InvalidInputError(f"need |T| >= 2k, got |T| = {len(T)}")
    T_len = len(T)
    dec = PDecomposition(p, T_len, k)
    window = 2 * k - D
    nonzero = dict(_nonzero_a(T_len - k, k, p, window))
    a_values = tuple((i, nonzero.get(i, 0)) for i in range(1, window + 1))
    i0 = min(nonzero, default=None)

    refined = dec.has_refined_shape
    l4_7 = check_4_7(dec) if refined else None
    c4_8 = check_4_8(dec) if refined else None
    l4_9 = check_4_9(dec) if refined and dec.d == 1 else None
    return CriterionReport(
        p=p,
        T_len=T_len,
        k=k,
        D=D,
        a_values=a_values,
        i0=i0,
        guarantees_short=i0 is not None,
        l4_7=l4_7,
        c4_8=c4_8,
        l4_9=l4_9,
    )
