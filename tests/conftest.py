"""Shared fixtures and brute-force oracles.

The oracles here deliberately avoid the package's own tables and dynamic
programming: sums are recomputed from raw coordinate tuples and subsequences
are enumerated as position subsets, so agreement with the library is
meaningful cross-validation rather than a tautology.
"""

from __future__ import annotations

import functools
import math
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import settings

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

ACCEPTANCE_RESULTS: list[tuple[int, bool, str]] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, passed, description in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d}: {verdict} — {description}")


def all_elements(factors):
    """All coordinate tuples of the group with the given invariant factors."""
    return list(product(*(range(n) for n in factors)))


def factor_chains(max_order):
    """Every invariant-factor chain n_1 | ... | n_r (n_1 >= 2, r >= 1) with
    n_1 * ... * n_r <= max_order."""

    def extend(chain, order):
        yield chain
        for m in range(chain[-1], max_order // order + 1, chain[-1]):
            yield from extend(chain + (m,), order * m)

    for n in range(2, max_order + 1):
        yield from extend((n,), n)


def _primes_dividing(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


@functools.lru_cache(maxsize=None)
def brute_invertible_matrices(n, r):
    """Every r x r matrix over Z_n, kept iff its rows span F_p^r for each
    prime p | n (the span is listed by brute force), in row-major order."""
    out = []
    for flat in product(range(n), repeat=r * r):
        mat = tuple(flat[i * r : (i + 1) * r] for i in range(r))
        if all(
            len({
                tuple(sum(c * row[j] for c, row in zip(coeffs, mat)) % p for j in range(r))
                for coeffs in product(range(p), repeat=r)
            }) == p**r
            for p in _primes_dividing(n)
        ):
            out.append(mat)
    return tuple(out)


def apply_matrix(M, n, coords):
    """The image of a coordinate tuple under the matrix M over Z_n:
    coordinate i is sum_j M[i][j] * coords[j] mod n."""
    return tuple(sum(m * c for m, c in zip(row, coords)) % n for row in M)


def apply_chain_matrix(M, factors, coords):
    """The image of a coordinate tuple under the matrix M of an automorphism
    of C_n1 + ... + C_nr: coordinate i is sum_j M[i][j] * coords[j] mod n_i."""
    return tuple(sum(m * c for m, c in zip(row, coords)) % n for row, n in zip(M, factors))


def brute_automorphism_maps(factors):
    """Every automorphism of C_n1 + ... + C_nr, as the tuple of the element
    indices (in ``all_elements`` order) of its images, found as generator
    images b_i with ord(b_i) | n_i that give a bijection; no matrix is
    involved.  A choice of b_k with a * b_k in the span of b_1..b_(k-1) for
    some 0 < a < n_k is dropped at once: the map is then not injective on
    C_n1 + ... + C_nk, so no extension is a bijection."""
    elements = all_elements(factors)
    index = {c: i for i, c in enumerate(elements)}
    zero = elements[0]

    def combine(s, a, b):
        return tuple((x + a * y) % n for x, y, n in zip(s, b, factors))

    orders = [math.lcm(*(n // math.gcd(x, n) for x, n in zip(c, factors))) for c in elements]

    def extend(k, images):  # images of C_n1 + ... + C_nk, in element order
        if k == len(factors):
            yield tuple(index[c] for c in images)
            return
        n, span = factors[k], set(images)
        for b, ord_b in zip(elements, orders):
            if n % ord_b == 0 and all(combine(zero, a, b) not in span for a in range(1, n)):
                yield from extend(k + 1, [combine(s, a, b) for s in images for a in range(n)])

    return extend(0, [zero])


def matrix_image(M, S):
    """The image of the sequence S under the automorphism with matrix M,
    term by term through ``apply_matrix``."""
    from zerosum import Sequence

    G = S.group
    return Sequence.from_elements(
        G, [G.element(apply_matrix(M, G.exponent, g.coords)) for g in S.expand()]
    )


def tuple_sum(coords_list, factors):
    total = [0] * len(factors)
    for coords in coords_list:
        for i, (a, n) in enumerate(zip(coords, factors)):
            total[i] = (total[i] + a) % n
    return tuple(total)


def brute_has_zero_sum(coords_list, lengths, factors) -> bool:
    """Position-subset scan: does some subsequence with length in ``lengths``
    sum to zero?"""
    zero = (0,) * len(factors)
    n = len(coords_list)
    for length in lengths:
        if length < 1 or length > n:
            continue
        for positions in combinations(range(n), length):
            if tuple_sum([coords_list[i] for i in positions], factors) == zero:
                return True
    return False


def brute_min_zero_sum(coords_list, factors) -> int | None:
    zero = (0,) * len(factors)
    n = len(coords_list)
    for length in range(1, n + 1):
        for positions in combinations(range(n), length):
            if tuple_sum([coords_list[i] for i in positions], factors) == zero:
                return length
    return None


def brute_s_L(factors, lengths_of, cap: int = 12) -> int:
    """1 + the maximum length of a multiset with no zero-sum subsequence of a
    banned length.  ``lengths_of(total_length)`` yields the banned lengths
    for a sequence of that length.  Fails the calling test beyond ``cap``."""
    elements = all_elements(factors)
    for length in range(1, cap + 1):
        banned = list(lengths_of(length))
        found_free = False
        for multiset in combinations_with_replacement(elements, length):
            if not brute_has_zero_sum(list(multiset), banned, factors):
                found_free = True
                break
        if not found_free:
            return length
    raise AssertionError(f"no bound found up to {cap}")


def brute_s_leq(factors, k, cap: int = 12) -> int:
    return brute_s_L(factors, lambda n: range(1, k + 1), cap)


def brute_davenport(factors, cap: int = 12) -> int:
    return brute_s_L(factors, lambda n: range(1, n + 1), cap)


def _flag(factors):
    """The flag: the unit vectors from the last coordinate to the first."""
    r = len(factors)
    return [tuple(int(i == r - 1 - j) for i in range(r)) for j in range(r)]


@functools.lru_cache(maxsize=None)
def _close(span, g, factors):
    """The subgroup generated by ``span`` and g, closed under addition pair
    by pair."""
    new = set(span) | {g}
    while True:
        sums = {tuple_sum([a, b], factors) for a in new for b in new}
        if sums <= new:
            return frozenset(new)
        new |= sums


def brute_flag_count(factors, max_length) -> int:
    """The number of sorted tuples of at most ``max_length`` elements, the
    empty one included, that obey the flag rule: a term outside the
    subgroup spanned by the earlier terms must be the next flag member."""
    factors = tuple(factors)
    r = len(factors)
    elements = all_elements(factors)
    flag = _flag(factors)

    def count(prefix, span, dim):
        total = 1
        if len(prefix) < max_length:
            for g in elements:
                if prefix and g < prefix[-1]:
                    continue
                if g in span:
                    total += count(prefix + (g,), span, dim)
                elif dim < r and g == flag[dim]:
                    total += count(prefix + (g,), _close(span, g, factors), dim + 1)
        return total

    return count((), frozenset([(0,) * r]), 0)


def brute_obeys_flag(coords_list, factors) -> bool:
    """Whether a sorted tuple obeys the flag rule of ``brute_flag_count``."""
    factors = tuple(factors)
    flag = _flag(factors)
    span, dim = frozenset([(0,) * len(factors)]), 0
    for g in coords_list:
        if g in span:
            continue
        if dim == len(flag) or g != flag[dim]:
            return False
        span, dim = _close(span, g, factors), dim + 1
    return True


def invariant_factor_chains(max_order: int, min_rank: int = 1):
    """Every invariant-factor chain (n_1 | n_2 | ... | n_r) with product
    <= max_order, smallest factor >= 2."""
    chains = []

    def extend(chain, order):
        if len(chain) >= min_rank:
            chains.append(tuple(chain))
        last = chain[-1] if chain else 2
        start = last if chain else 2
        for n in range(start, max_order + 1):
            if chain and n % last != 0:
                continue
            if order * n > max_order:
                continue
            extend(chain + [n], order * n)

    extend([], 1)
    return chains


@pytest.fixture(scope="session")
def c33_computed_values():
    """s_leq(C_3^3, k) for k = 3..7 computed once per session (symmetry on)."""
    from zerosum import SearchConfig, make_group, s_leq

    G = make_group([3, 3, 3])
    cfg = SearchConfig(symmetry_reduction=True)
    return {k: s_leq(G, k, cfg) for k in (3, 4, 5, 6, 7)}
