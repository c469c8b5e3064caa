"""Extremal sequence constructions and their verifiers.

Two lower-bound constructions are provided: a doubling recursion over C_n^r
whose zero-sum subsequences all have length >= 2n-k, and a general-group
sequence of length D*(G)+k-1 whose zero-sum subsequences all have length
>= D*(G)-k+1.  Alongside them live the four inverse families over C_n^2
(the classified longest sequences avoiding short zero-sums) and a basis-change
matcher deciding whether a given sequence is one of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd

from .errors import InvalidInputError, InvalidParamsError
from .groups import (
    GroupSpec,
    automorphism_index_images,
    d_star,
    element_index,
    make_group,
)
from .sequences import Sequence, min_zero_sum_length, sigma


@dataclass(frozen=True)
class LowerCnrParams:
    """Parameters of the homocyclic doubling construction."""

    n: int
    r: int
    k: int

    def __post_init__(self):
        if self.n < 2 or self.r < 2:
            raise InvalidParamsError("need n >= 2 and r >= 2")
        if not 0 <= self.k <= self.n - 1:
            raise InvalidParamsError("need k in [0, n-1]")


@dataclass(frozen=True)
class LowerGeneralParams:
    """Parameters of the general lower-bound construction.

    The admissible range is exp(G) <= D*(G)-k <= 2*exp(G)-1; it makes the
    multiplicity x of the last basis vector land in [0, exp(G)-1].
    """

    group: GroupSpec
    k: int

    def __post_init__(self):
        G = self.group
        if G.rank < 1:
            raise InvalidParamsError("need a nontrivial group")
        if not G.exponent <= d_star(G) - self.k <= 2 * G.exponent - 1:
            raise InvalidParamsError(
                f"need exp(G) <= D*(G)-k <= 2*exp(G)-1, got D*-k = {d_star(G) - self.k}"
            )


def build_lowercnr(p: LowerCnrParams) -> Sequence:
    """Sequence over C_n^r of length 2^(r-1)(n-1)+k with no zero-sum
    subsequence shorter than 2n-k.

    Base (r=2): e_1^(n-1) e_2^(n-1) (e_1+e_2)^k.  Each further rank doubles
    the multiplicity-(n-1) part: every such element g spawns g and g+e_r.
    The k-fold element e_1+e_2 is fixed throughout and never doubles, so the
    two roles are tracked separately (they coincide in multiplicity when
    k = n-1).
    """
    n, r, k = p.n, p.r, p.k
    G = make_group([n] * r)
    e = [G.e(i) for i in range(1, r + 1)]
    g0 = e[0] + e[1]
    doubling = [e[0], e[1]]
    for j in range(2, r):
        doubling = [g for gi in doubling for g in (gi, gi + e[j])]
    pairs = [(gi, n - 1) for gi in doubling]
    if k:
        pairs.append((g0, k))
    return Sequence.from_pairs(G, pairs)


def build_lower_general(p: LowerGeneralParams) -> Sequence:
    """Sequence over G of length D*(G)+k-1 with no zero-sum subsequence
    shorter than D*(G)-k+1: e_r^x prod_i e_i^(n_i-1) (e_r-e_i)^(n_i-1),
    where x = exp(G)+k-D*(H) and H is the complement of the last factor."""
    G, k = p.group, p.k
    r = G.rank
    e_r = G.e(r)
    d_star_h = d_star(G) - (G.exponent - 1)
    x = G.exponent + k - d_star_h
    if not 0 <= x <= G.exponent - 1:
        raise InvalidParamsError(f"multiplicity x = {x} out of [0, exp(G)-1]")
    pairs = []
    if x:
        pairs.append((e_r, x))
    for i in range(1, r):
        m = G.factors[i - 1] - 1
        e_i = G.e(i)
        pairs.append((e_i, m))
        pairs.append((e_r - e_i, m))
    return Sequence.from_pairs(G, pairs)


# --- the inverse families over C_n^2 ----------------------------------------


def build_inv2(n: int, k: int, xs=None, x: int | None = None) -> Sequence:
    """A member of the length-(2n-2+k) family over C_n^2 with no zero-sum
    subsequence of length <= 2n-1-k.

    k = 1 takes the n coefficients ``xs`` (default (0,...,0,1)) with
    sum(xs) = 1 mod n; k = n-1 takes a unit ``x`` (default 1); k in [2, n-2]
    has no parameters; k = 0 is the k = 1 member with its last varying term
    removed (the removal keeps it zero-sum free).  For n = 2, k = 1 is
    k = n-1.  A parameter given for a k that does not take it is an error.
    """
    if n < 2:
        raise InvalidParamsError("need n >= 2")
    if not 0 <= k <= n - 1:
        raise InvalidParamsError("need k in [0, n-1]")
    G = make_group([n, n])
    e1, e2 = G.e(1), G.e(2)
    if k == n - 1:
        if xs is not None:
            raise InvalidParamsError("k = n-1 takes x, not xs")
        x = 1 if x is None else x
        if gcd(x, n) != 1:
            raise InvalidParamsError(f"need gcd(x, n) = 1, got x = {x}")
        return Sequence.from_pairs(G, [(e1, n - 1), (e2, n - 1), (x * e1 + e2, k)])
    if k >= 2:
        if xs is not None or x is not None:
            raise InvalidParamsError("k in [2, n-2] takes no variant parameters")
        return Sequence.from_pairs(G, [(e1, n - 1), (e2, n - 1), (e1 + e2, k)])
    if x is not None:
        raise InvalidParamsError("k in {0, 1} takes xs, not x")
    if xs is None:
        xs = (0,) * (n - 1) + (1,)
    xs = tuple(int(v) % n for v in xs)
    if len(xs) != n or sum(xs) % n != 1:
        raise InvalidParamsError("need n coefficients with sum = 1 mod n")
    S = Sequence.from_elements(G, [e1] * (n - 1) + [x * e1 + e2 for x in xs])
    if k == 1:
        return S
    # k = 0: drop one varying term; the remainder sums to its negation.
    return S.without_term(xs[-1] * e1 + e2)


def inverse_family_members(n: int, k: int) -> tuple[Sequence, ...]:
    """Every family member for this k, over the standard basis, each built by
    ``build_inv2``.

    The k = 1 coefficient lists are enumerated as multisets (term order is
    immaterial); k = 0 members are the k = 1 members with one term removed,
    in first-seen order.
    """
    if n < 2:
        raise InvalidParamsError("need n >= 2")
    if not 0 <= k <= n - 1:
        raise InvalidParamsError("need k in [0, n-1]")
    if k == n - 1:
        return tuple(build_inv2(n, k, x=x) for x in range(1, n) if gcd(x, n) == 1)
    if k >= 2:
        return (build_inv2(n, k),)
    if k == 1:
        return tuple(build_inv2(n, 1, xs=xs)
                     for xs in combinations_with_replacement(range(n), n) if sum(xs) % n == 1)
    # For n = 2, k = 1 is k = n-1, so its member comes from the unit branch.
    ones = inverse_family_members(n, 1)
    return tuple(dict.fromkeys(S.without_term(g) for S in ones for g in S.support()))


def match_inverse_structure(S: Sequence, n: int, k: int) -> bool:
    """Whether some change of basis carries S onto an inverse-family member.

    For k = 0 the membership rule is: appending the negated sum must land in
    the k = 1 family.  The scan over automorphisms makes the result basis
    independent by construction.  Images are compared with the members as
    sorted element indices, read map by map from
    ``groups.automorphism_index_images``.
    """
    G = make_group([n, n])
    if S.group != G:
        raise InvalidInputError(f"sequence is over {S.group}, expected {G}")
    if not 0 <= k <= n - 1:
        raise InvalidInputError("need k in [0, n-1]")
    if len(S) != 2 * n - 2 + k:
        raise InvalidInputError(f"expected length {2 * n - 2 + k}, got {len(S)}")
    if k == 0:
        # phi(S) (-sigma(phi(S))) = phi(S (-sigma(S))), so extend S once.
        S, k = S.with_term(-sigma(S)), 1
    members = _member_indices(n, k)
    images = automorphism_index_images(G, [element_index(G, g.coords) for g in S.expand()])
    return any(tuple(sorted(image)) in members for image in images)


@lru_cache(maxsize=64)
def _member_indices(n: int, k: int) -> frozenset[tuple[int, ...]]:
    """The sorted element indices, in ``group_table`` order, of the terms
    of every (n, k) family member, for k >= 1."""
    G = make_group([n, n])
    return frozenset(
        tuple(element_index(G, g.coords) for g in m.expand()) for m in inverse_family_members(n, k)
    )


# --- verification -----------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking a construction's length and shortest zero-sum."""

    sequence: Sequence
    expected_length: int
    min_zs: int
    actual_length: int
    actual_min: int | None
    length_ok: bool
    min_ok: bool

    @property
    def passed(self) -> bool:
        return self.length_ok and self.min_ok


def verify_construction(S: Sequence, expected_length: int, min_zs: int) -> VerificationReport:
    """Check |S| = expected_length and that every nonempty zero-sum
    subsequence has length >= min_zs (no zero-sum at all passes)."""
    actual_min = min_zero_sum_length(S)
    return VerificationReport(
        sequence=S,
        expected_length=expected_length,
        min_zs=min_zs,
        actual_length=len(S),
        actual_min=actual_min,
        length_ok=len(S) == expected_length,
        min_ok=actual_min is None or actual_min >= min_zs,
    )
