"""Finite abelian groups in invariant-factor form.

A group is represented by its invariant factors (n_1 | n_2 | ... | n_r, all
>= 2); ``make_group`` normalizes an arbitrary factor list into this form via
prime-power decomposition.  Elements are immutable coordinate tuples with
componentwise arithmetic.  The module also provides the structural constants
used throughout the package (exponent, order, the combinatorial lower bound
``d_star``), the automorphisms of every G = C_n1 + ... + C_nr, listed by
``enumerate_automorphisms`` as the integer matrices that are their only
form in the package and counted in closed form, and the Aut(G)-orbit minima
of any G, read from height (Ulm) sequences.  ``automorphism_images`` is the
one place a matrix is applied to coordinates.  The cached column-major
table of element indices (``automorphism_permutations``, for every G with
|G| <= 256 and |Aut(G)| <= 2^14, such as C_3^3, C_3 x C_9 and C_n^2 for
n <= 12) is built from its byte lanes and read by the search's orderly
check.  ``automorphism_index_images`` gives the images of element indices
map by map, from that table where G has one and otherwise from
``automorphism_images`` (``element_coords`` converts without a table);
orbit canonicalisation and the inverse-structure matcher read it.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    GroupMismatchError,
    InvalidFactorError,
    InvalidInputError,
    ResourceLimitError,
)

# Groups larger than this are refused by the enumerators so that downstream
# tables stay bounded.
ENUMERATION_CAP = 10**6
# The most automorphisms an automorphism permutation table holds: a pass of
# the search's orderly check costs time in proportion to |Aut(G)|.  Each entry
# is one byte, so the table also needs |G| <= 256.
PERMUTATION_TABLE_CAP = 2**14


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (orders here are small)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    """Trial division, stopping at the first divisor."""
    if n < 4:
        return n > 1
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class GroupSpec:
    """C_{n_1} + ... + C_{n_r} with 1 < n_1 | n_2 | ... | n_r.

    The empty factor tuple is the trivial group.  Construct directly only
    with a valid divisibility chain; use ``make_group`` to normalize.
    """

    factors: tuple[int, ...] = ()

    def __post_init__(self):
        for n in self.factors:
            if not isinstance(n, int) or n < 2:
                raise InvalidFactorError(f"factors must be integers >= 2: {self.factors}")
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a:
                raise InvalidFactorError(f"not a divisibility chain: {self.factors}")

    @property
    def rank(self) -> int:
        return len(self.factors)

    @property
    def exponent(self) -> int:
        return self.factors[-1] if self.factors else 1

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    def is_homocyclic(self) -> bool:
        return self.rank >= 1 and len(set(self.factors)) == 1

    def p_group_prime(self) -> int | None:
        """The prime p if |G| is a nontrivial power of p, else None."""
        if not self.factors:
            return None
        primes = factorize(self.order)
        if len(primes) == 1:
            return next(iter(primes))
        return None

    def element(self, coords) -> "GroupElement":
        coords = tuple(coords)
        if len(coords) != self.rank:
            raise InvalidInputError(
                f"expected {self.rank} coordinates, got {len(coords)}"
            )
        return GroupElement(self, tuple(c % n for c, n in zip(coords, self.factors)))

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def e(self, i: int) -> "GroupElement":
        """The i-th standard generator (1-based)."""
        if not 1 <= i <= self.rank:
            raise InvalidInputError(f"basis index {i} out of range 1..{self.rank}")
        return GroupElement(self, tuple(1 if j == i - 1 else 0 for j in range(self.rank)))

    def __str__(self) -> str:
        if not self.factors:
            return "C1"
        parts = []
        for n, run in itertools.groupby(self.factors):
            count = len(list(run))
            parts.append(f"C{n}^{count}" if count > 1 else f"C{n}")
        return "x".join(parts)


@dataclass(frozen=True)
class GroupElement:
    """An element of a GroupSpec; coordinates are stored reduced."""

    group: GroupSpec
    coords: tuple[int, ...]

    def __post_init__(self):
        fs = self.group.factors
        if len(self.coords) != len(fs):
            raise InvalidInputError("coordinate count does not match group rank")
        if any(not 0 <= c < n for c, n in zip(self.coords, fs)):
            raise InvalidInputError(f"coordinates not reduced: {self.coords}")

    def _check(self, other: "GroupElement"):
        if self.group != other.group:
            raise GroupMismatchError(f"{self.group} vs {other.group}")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(
            self.group,
            tuple((a + b) % n for a, b, n in zip(self.coords, other.coords, self.group.factors)),
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(
            self.group,
            tuple((a - b) % n for a, b, n in zip(self.coords, other.coords, self.group.factors)),
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(
            self.group, tuple((-a) % n for a, n in zip(self.coords, self.group.factors))
        )

    def __rmul__(self, c: int) -> "GroupElement":
        return GroupElement(
            self.group, tuple((c * a) % n for a, n in zip(self.coords, self.group.factors))
        )

    def __lt__(self, other: "GroupElement") -> bool:
        return self.coords < other.coords

    def order(self) -> int:
        return math.lcm(*(n // math.gcd(c, n) for c, n in zip(self.coords, self.group.factors))) if self.coords else 1

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coords)


# --- module-level operations ----------------------------------------------


def make_group(raw_factors) -> GroupSpec:
    """Normalize a factor list to invariant-factor form.

    Decomposes each factor into prime powers and remerges them so that the
    result is a divisibility chain presenting the same group, e.g.
    [2, 3] -> (6,) and [4, 2] -> (2, 4).
    """
    per_prime: dict[int, list[int]] = {}
    for n in raw_factors:
        if not isinstance(n, int) or n < 2:
            raise InvalidFactorError(f"factors must be integers >= 2: {list(raw_factors)}")
        for p, e in factorize(n).items():
            per_prime.setdefault(p, []).append(e)
    for exps in per_prime.values():
        exps.sort(reverse=True)
    depth = max((len(v) for v in per_prime.values()), default=0)
    invariant = []
    for i in range(depth):
        f = 1
        for p, exps in per_prime.items():
            if i < len(exps):
                f *= p ** exps[i]
        invariant.append(f)
    invariant.reverse()
    return GroupSpec(tuple(invariant))


def d_star(G: GroupSpec) -> int:
    """1 + sum(n_i - 1): the classical lower bound for the Davenport constant."""
    return 1 + sum(n - 1 for n in G.factors)


def d_equals_dstar_known(G: GroupSpec) -> bool:
    """True iff G belongs to a family where the Davenport constant is known
    to equal d_star(G); False means unknown, not a strict inequality."""
    fs = G.factors
    r = G.rank
    if r <= 2:
        return True
    if G.p_group_prime() is not None:
        return True
    # p-group direct-summed with a coprime cyclic factor, provided the p-part
    # G' satisfies d_star(G') <= 2*exp(G') - 1.  The coprime part is cyclic
    # exactly when every factor below the top one is a power of one prime.
    head = factorize(fs[0])
    if len(head) == 1:
        (p,) = head
        if all(len(factorize(n)) == 1 and n % p == 0 for n in fs[:-1]):
            top_p = p ** factorize(fs[-1]).get(p, 0)
            p_part = [*fs[:-1], top_p] if top_p > 1 else list(fs[:-1])
            exp_p = max(p_part)
            if 1 + sum(n - 1 for n in p_part) <= 2 * exp_p - 1:
                return True
    if r == 3:
        if fs[0] == 2:
            return True
        if fs[0] == 3 and fs[1] % 6 == 0:
            return True
        if all(n % 2 == 0 for n in fs):
            odd_primes = set()
            for n in fs:
                odd_primes.update(factorize(n // 2))
            if len(odd_primes) <= 1:
                return True
    if r == 4 and fs[:3] == (2, 2, 2):
        return True
    return False


def enumerate_elements(G: GroupSpec):
    """All elements in lexicographic coordinate order (zero first)."""
    if G.order > ENUMERATION_CAP:
        raise ResourceLimitError(f"group order {G.order} exceeds enumeration cap")
    for coords in itertools.product(*(range(n) for n in G.factors)):
        yield GroupElement(G, coords)


def enumerate_automorphisms(G: GroupSpec):
    """Every automorphism of G = C_n1 + ... + C_nr as an r x r matrix M: a
    tuple of row tuples with M[i][j] in Z_ni and n_j * M[i][j] = 0 mod n_i,
    acting by phi(a)_i = sum_j M[i][j] a_j mod n_i.  Matrices come in
    row-major lexicographic order over their entries; the identity is among
    them.  On C_n^r they are the invertible matrices over Z_n.

    Such an M is an endomorphism of G.  It is an automorphism iff, for every
    prime p | |G|, the square block of rows and columns with p | n_i is
    invertible over F_p: that block mod p is the map M induces on
    G_p / pG_p, and an endomorphism of the p-component G_p is onto iff that
    map is (Hillar and Rhea, Amer. Math. Monthly 114 (2007)).  Rows are
    chosen top to bottom in lexicographic order, each kept only if, for
    every p whose block holds it, its block part mod p lies outside the
    F_p-span of the block rows above it, so exactly the automorphisms are
    visited.  On a cyclic group C_n that rule keeps the rows (a,) with
    gcd(a, n) = 1, which are listed directly.  Raises ResourceLimitError
    when called, before an iterator is returned, for a G with more than
    ENUMERATION_CAP automorphisms.
    """
    r = G.rank
    count = _automorphism_count(G)
    if count > ENUMERATION_CAP:
        raise ResourceLimitError(
            f"|Aut({G})| = {count} automorphisms exceed the enumeration cap"
        )
    if not r:
        return iter(((),))
    if r == 1:
        n = G.factors[0]
        return (((a,),) for a in range(n) if math.gcd(a, n) == 1)
    return _automorphisms_by_rows(G)


def _automorphisms_by_rows(G: GroupSpec):
    """The maps of ``enumerate_automorphisms`` on a G of rank >= 1, chosen
    row by row against the span of the rows above in each prime block."""
    r = G.rank
    rows = [tuple(itertools.product(*entries)) for entries in _row_entries(G.factors)]
    # Per prime p: (p, the first row and column of its block).
    blocks = [(p, next(i for i, n in enumerate(G.factors) if n % p == 0))
              for p in factorize(G.order)]
    # Per position i: the blocks that hold row i, and per candidate row its
    # block parts mod their primes.
    live = [[k for k, (_, s) in enumerate(blocks) if s <= i] for i in range(r)]
    reduced = [[tuple(tuple(c % blocks[k][0] for c in row[blocks[k][1]:]) for k in live[i])
                for row in rows[i]]
               for i in range(r)]

    def extend(prefix, spans):
        # The rows outside the span of the prefix in every block that holds them.
        i = len(prefix)
        held = [spans[k] for k in live[i]]
        free = [(row, mods) for row, mods in zip(rows[i], reduced[i])
                if not any(map(set.__contains__, held, mods))]
        if i == r - 1:
            yield from map(prefix.__add__, ((row,) for row, _ in free))
            return
        for row, mods in free:
            grown = list(spans)
            for k, v in zip(live[i], mods):
                p = blocks[k][0]
                # span + a*v for a = 0, ..., p-1, one translate by v at a time.
                out, shifted = set(spans[k]), spans[k]
                for _ in range(p - 1):
                    shifted = {tuple([(x + y) % p for x, y in zip(v, s)]) for s in shifted}
                    out |= shifted
                grown[k] = out
            yield from extend(prefix + (row,), grown)

    return extend((), [{(0,) * (r - s)} for _, s in blocks])


@lru_cache(maxsize=None)
def _row_entries(factors: tuple[int, ...]) -> tuple[tuple[range, ...], ...]:
    """Per position (i, j), the values M[i][j] takes in a matrix of
    ``enumerate_automorphisms``: the multiples of n_i / gcd(n_i, n_j) below
    n_i.  Their product over j, in lexicographic order, is the candidate
    rows of position i, prod_j gcd(n_i, n_j) <= |G| of them."""
    return tuple(tuple(range(0, n, n // math.gcd(n, m)) for m in factors) for n in factors)


def _automorphism_count(G: GroupSpec) -> int:
    """|Aut(G)|, the product over p | |G| of |Aut(G_p)|, in closed form.

    For G_p = C_p^e_1 + ... + C_p^e_m with 1 <= e_1 <= ... <= e_m, let
    d_k = max{l : e_l = e_k} and c_k = min{l : e_l = e_k}; then |Aut(G_p)| =
    prod_k (p^d_k - p^(k-1)) * prod_k p^(e_k (m - d_k)) * prod_k p^((e_k - 1)(m - c_k + 1))
    (Hillar and Rhea, Theorem 4.1).  On C_n^r this is |GL_r(Z/n)|.
    """
    count = 1
    for p in factorize(G.order):
        e = [v for v in (factorize(n).get(p, 0) for n in G.factors) if v]
        m = len(e)
        for k, ek in enumerate(e):
            d = m - e[::-1].index(ek)
            c = e.index(ek) + 1
            count *= (p**d - p**k) * p ** (ek * (m - d) + (ek - 1) * (m - c + 1))
    return count


# Maps per block of the byte-lane form of ``automorphism_images``.
_LANE_BLOCK = 512


def automorphism_images(G: GroupSpec, coords, lanes: bool = False):
    """For each automorphism phi of G, in ``enumerate_automorphisms`` order,
    the tuple of the group_table indices of the images phi(a) of the
    coordinate tuples a in ``coords``, in input order.

    This is the one place the package applies a matrix to coordinates:
    row i of M maps a to coordinate i of phi(a), so each image is assembled
    from r dot products of a matrix row with an input, mod n_i, computed
    the first time that row is met at position i and kept for later maps.

    With ``lanes``, the images come transposed as byte lanes, for blocks of
    at most ``_LANE_BLOCK`` consecutive maps: per block, a list with, per
    input a, a tuple of r ``bytes`` whose k-th byte is coordinate i of
    phi_k(a), for the k-th map phi_k of the block.  Each matrix row is then
    one byte, its index among the candidate rows of its position
    (``_row_entries``), and lane i of a is row i of every matrix
    translated through the table of dot products with a, so no Python
    object is made per map and input, and only one block of matrices is
    held at a time.  That needs |G| <= 256.  Refuses when called, as the
    lister does.
    """
    matrices = enumerate_automorphisms(G)  # refuses G over the cap first
    factors = G.factors
    coords = tuple(coords)
    if lanes:
        if G.order > 256:
            raise ResourceLimitError(f"byte lanes need at most 256 elements, not {G.order}")
        entries = _row_entries(factors)
        row_ids = [{row: k for k, row in enumerate(itertools.product(*values))}.__getitem__
                   for values in entries]
        # dots[a][i][k]: the k-th candidate row of position i dotted with a,
        # mod n_i, built one coordinate at a time in the rows' product order.
        dots = []
        for a in coords:
            tables = []
            for n, values in zip(factors, entries):
                dot = [0]
                for x, column in zip(a, values):
                    dot = [(d + c * x) % n for d in dot for c in column]
                tables.append(bytes(dot) + bytes(256 - len(dot)))
            dots.append(tables)

        def blocks():
            while block := list(itertools.islice(matrices, _LANE_BLOCK)):
                # ids[i][k]: the index of row i of the k-th matrix of the block.
                ids = [bytes(map(row_id, column)) for row_id, column in zip(row_ids, zip(*block))]
                yield [tuple(lane.translate(dot) for lane, dot in zip(ids, tables))
                       for tables in dots]

        return blocks()

    def images():
        # Column i of a map holds w_i * phi(a)_i per input a, w_i = n_(i+1)
        # ... n_r, so the columns sum to indices; w_i also marks position i.
        weights = [math.prod(factors[i + 1:]) for i in range(len(factors))]
        dots = {}
        for M in matrices:
            columns = []
            for row, n, w in zip(M, factors, weights):
                column = dots.get((row, w))
                if column is None:
                    column = dots[row, w] = tuple(w * (sum(m * x for m, x in zip(row, a)) % n)
                                                  for a in coords)
                columns.append(column)
            # The trivial group has no column, and every index is 0.
            image = columns[0] if columns else (0,) * len(coords)
            for column in columns[1:]:
                image = tuple(map(operator.add, image, column))
            yield image

    return images()


def permutation_table_fits(G: GroupSpec) -> bool:
    """Whether G has an ``automorphism_permutations`` table: nontrivial, at
    most 256 elements (one byte per entry) and at most
    PERMUTATION_TABLE_CAP automorphisms, by the closed-form count.  Lists no
    automorphism."""
    return (G.rank >= 1 and G.order <= 256
            and _automorphism_count(G) <= PERMUTATION_TABLE_CAP)


@lru_cache(maxsize=None)
def automorphism_permutations(G: GroupSpec) -> tuple[bytes, ...] | None:
    """Aut(G) as a column-major table of element indices in group_table
    order: entry x is one ``bytes`` whose k-th byte is phi_k(x), for the
    k-th automorphism in ``enumerate_automorphisms`` order.  None unless
    ``permutation_table_fits(G)``.

    It is built block by block from the byte lanes of
    ``automorphism_images``: the index of a coordinate tuple c is
    sum_i c_i * w_i with w_i = n_(i+1) * ... * n_r, so weighting lane i by
    w_i and adding the lanes as big ints gives a block's indices at once.
    No lane carries into the next byte, since each sum is below |G| <= 256.
    """
    if not permutation_table_fits(G):
        return None
    weights = [math.prod(G.factors[i + 1:]) for i in range(G.rank)]
    columns = [bytearray() for _ in range(G.order)]
    for block in automorphism_images(G, group_table(G).elements, lanes=True):
        size = len(block[0][0])
        for column, lanes in zip(columns, block):
            index = sum(w * int.from_bytes(lane, "little") for w, lane in zip(weights, lanes))
            column += index.to_bytes(size, "little")
    for x, column in enumerate(columns):
        columns[x] = bytes(column)  # frees each bytearray as it is copied
    return tuple(columns)


def element_index(G: GroupSpec, coords) -> int:
    """The group_table index of ``coords``, sum_i c_i * n_(i+1) ... n_r."""
    return sum(c * math.prod(G.factors[i + 1:]) for i, c in enumerate(coords))


def element_coords(G: GroupSpec, index: int) -> tuple[int, ...]:
    """The coordinates of group_table element ``index``: ``element_index`` inverted."""
    return tuple(index // math.prod(G.factors[i + 1:]) % n for i, n in enumerate(G.factors))


def automorphism_index_images(G: GroupSpec, indices):
    """For each automorphism phi of G, in ``enumerate_automorphisms`` order,
    the tuple of the images phi(x) of the element indices x in the list
    ``indices``, in input order: read from the columns of
    ``automorphism_permutations`` where G has that table, else from the
    images ``automorphism_images`` gives (no group_table needed), and
    refused as it refuses."""
    columns = automorphism_permutations(G)
    if columns is not None:
        if not indices:  # zip() would yield no image at all
            return itertools.repeat((), len(columns[0]))
        return zip(*(columns[x] for x in indices))
    return automorphism_images(G, [element_coords(G, x) for x in indices])


@lru_cache(maxsize=None)
def orbit_minima(G: GroupSpec) -> int:
    """The elements that come first, in group_table order, in their
    Aut(G)-orbit, as an |G|-bit int; no automorphism is listed.

    Two elements of a finite abelian p-group share an Aut-orbit iff their
    height (Ulm) sequences agree (Kaplansky, Infinite Abelian Groups), and
    Aut(G) is the product of the automorphism groups of the p-components.
    The p-component of x has coordinates y_i = x_i mod p^e_i, e_i = v_p(n_i);
    p^j y has height min{v_p(y_i) + j : y_i != 0, v_p(y_i) + j < e_i}, and
    the sequence ends at the first j with p^j y = 0.
    """
    # Per prime p: (p, per coordinate (p^e_i, e_i)).
    local = [(p, [(p**e, e) for e in (factorize(n).get(p, 0) for n in G.factors)])
             for p in factorize(G.order)]

    def valuation(y, p):
        v = 0
        while y % p == 0:
            y //= p
            v += 1
        return v

    seen = set()
    mask = 0
    for index, coords in enumerate(group_table(G).elements):
        key = []
        for p, exps in local:
            # (v_p(y_i), e_i) for each nonzero y_i.
            pairs = [(valuation(c % q, p), e) for c, (q, e) in zip(coords, exps) if c % q]
            j = 0
            while True:
                heights = [v + j for v, e in pairs if v + j < e]
                if not heights:
                    break
                key.append(min(heights))
                j += 1
            key.append(-1)  # ends this prime's sequence
        key = tuple(key)
        if key not in seen:
            seen.add(key)
            mask |= 1 << index
    return mask


# --- group-spec grammar ----------------------------------------------------

_TERM_RE = re.compile(r"^[Cc]?(\d+)(?:\^(\d+))?$")


def parse_group(text: str) -> GroupSpec:
    """Parse 'C3^3', 'C2xC4', or '2,4' into a normalized GroupSpec."""
    text = text.strip()
    if not text:
        raise InvalidInputError("empty group spec")
    raw: list[int] = []
    if "," in text:
        for part in text.split(","):
            part = part.strip()
            if not part.isdigit():
                raise InvalidInputError(f"bad group factor: {part!r}")
            raw.append(int(part))
    else:
        for token in re.split(r"[xX]", text):
            m = _TERM_RE.match(token.strip())
            if not m:
                raise InvalidInputError(f"bad group term: {token!r}")
            n = int(m.group(1))
            rep = int(m.group(2)) if m.group(2) else 1
            raw.extend([n] * rep)
    return make_group(raw)


# --- indexed tables (internal) ---------------------------------------------


class GroupTable:
    """Indexed view of a small group: elements in enumeration order (as
    coordinates, and as GroupElements built once), the negation permutation,
    and per-element addition permutations."""

    __slots__ = ("group", "elements", "index", "neg", "_add_rows", "_members")

    def __init__(self, G: GroupSpec):
        if G.order > ENUMERATION_CAP:
            raise ResourceLimitError(f"group order {G.order} exceeds enumeration cap")
        self.group = G
        self.elements = tuple(itertools.product(*(range(n) for n in G.factors)))
        self.index = {c: i for i, c in enumerate(self.elements)}
        fs = G.factors
        self.neg = tuple(
            self.index[tuple((-c) % n for c, n in zip(coords, fs))] for coords in self.elements
        )
        self._add_rows: dict[int, tuple[int, ...]] = {}
        self._members = tuple(GroupElement(G, coords) for coords in self.elements)

    def add_row(self, gi: int) -> tuple[int, ...]:
        """Permutation s -> s + g, as element indices."""
        row = self._add_rows.get(gi)
        if row is None:
            fs = self.group.factors
            g = self.elements[gi]
            row = tuple(
                self.index[tuple((a + b) % n for a, b, n in zip(coords, g, fs))]
                for coords in self.elements
            )
            self._add_rows[gi] = row
        return row

    def sub_row(self, gi: int) -> tuple[int, ...]:
        """Permutation s -> s - g, as element indices."""
        return self.add_row(self.neg[gi])

    def element(self, i: int) -> GroupElement:
        return self._members[i]


@lru_cache(maxsize=None)
def group_table(G: GroupSpec) -> GroupTable:
    return GroupTable(G)
