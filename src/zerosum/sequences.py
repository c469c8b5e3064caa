"""Sequences (finite multisets) over a finite abelian group.

Provides the canonical multiset type, the text format used by the CLI
(``coords^mult`` items separated by semicolons), subsequence-sum feasibility
tables, exact and modular subsequence counting, and the even/odd counting
split used by the mod-p machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import GroupMismatchError, InvalidInputError, ResourceLimitError
from .groups import (
    GroupElement,
    GroupSpec,
    automorphism_index_images,
    element_coords,
    element_index,
    group_table,
)

# Cap on |G| * (|S|+1) feasibility/counting table cells.
TABLE_CELL_CAP = 2**26


@dataclass(frozen=True)
class Sequence:
    """A finite multiset of group elements.

    Terms are stored as (element, multiplicity) pairs sorted by coordinates,
    so two equal multisets compare equal bit-for-bit.
    """

    group: GroupSpec
    terms: tuple[tuple[GroupElement, int], ...]

    def __post_init__(self):
        prev = None
        for g, m in self.terms:
            if g.group != self.group:
                raise GroupMismatchError("sequence term from a different group")
            if m < 1:
                raise InvalidInputError("multiplicities must be >= 1")
            if prev is not None and not prev < g:
                raise InvalidInputError("terms must be strictly sorted; use from_pairs")
            prev = g

    # -- constructors --------------------------------------------------

    @classmethod
    def empty(cls, G: GroupSpec) -> "Sequence":
        return cls(G, ())

    @classmethod
    def from_pairs(cls, G: GroupSpec, pairs) -> "Sequence":
        acc: dict[GroupElement, int] = {}
        for g, m in pairs:
            if m < 0:
                raise InvalidInputError("multiplicities must be >= 0")
            if m:
                acc[g] = acc.get(g, 0) + m
        return cls(G, tuple(sorted(acc.items())))

    @classmethod
    def from_elements(cls, G: GroupSpec, elements) -> "Sequence":
        return cls.from_pairs(G, ((g, 1) for g in elements))

    @classmethod
    def parse(cls, G: GroupSpec, text: str) -> "Sequence":
        """Parse the ``coords^mult`` text format, e.g. ``1,0^2; 0,1^1``."""
        text = text.strip()
        if not text:
            return cls.empty(G)
        pairs = []
        for item in text.split(";"):
            item = item.strip()
            if not item:
                continue
            if "^" in item:
                coords_part, _, mult_part = item.partition("^")
                try:
                    mult = int(mult_part.strip())
                except ValueError:
                    raise InvalidInputError(f"bad multiplicity in {item!r}") from None
            else:
                coords_part, mult = item, 1
            try:
                coords = [int(c.strip()) for c in coords_part.split(",")]
            except ValueError:
                raise InvalidInputError(f"bad coordinates in {item!r}") from None
            pairs.append((G.element(coords), mult))
        return cls.from_pairs(G, pairs)

    # -- views -----------------------------------------------------------

    @property
    def length(self) -> int:
        return sum(m for _, m in self.terms)

    def __len__(self) -> int:
        return self.length

    def multiplicity(self, g: GroupElement) -> int:
        for h, m in self.terms:
            if h == g:
                return m
        return 0

    def support(self) -> tuple[GroupElement, ...]:
        return tuple(g for g, _ in self.terms)

    def expand(self):
        """Iterate elements with repetition, in canonical order."""
        for g, m in self.terms:
            for _ in range(m):
                yield g

    def with_term(self, g: GroupElement, mult: int = 1) -> "Sequence":
        return Sequence.from_pairs(self.group, list(self.terms) + [(g, mult)])

    def without_term(self, g: GroupElement, mult: int = 1) -> "Sequence":
        have = self.multiplicity(g)
        if have < mult:
            raise InvalidInputError(f"cannot remove {mult} copies of {g}")
        pairs = [(h, m if h != g else m - mult) for h, m in self.terms]
        return Sequence.from_pairs(self.group, pairs)

    def format(self) -> str:
        return "; ".join(f"{g}^{m}" for g, m in self.terms)

    def __str__(self) -> str:
        return self.format()


@dataclass(frozen=True)
class LengthSet:
    """A set L of allowed zero-sum lengths.

    Kinds: ``interval`` = [1, k], ``explicit`` = a finite set (``exactly(m)``
    is ``of((m,))``) and ``all`` = every positive length.
    """

    kind: str
    k: int | None = None
    members: frozenset[int] | None = None

    def __post_init__(self):
        if self.kind == "interval":
            if not isinstance(self.k, int):
                raise InvalidInputError("interval bound must be an integer")
            if self.k < 1:
                raise InvalidInputError("interval bound must be >= 1")
        elif self.kind == "explicit":
            if not all(isinstance(l, int) for l in self.members or ()):
                raise InvalidInputError("explicit lengths must be integers")
            if not self.members or min(self.members) < 1:
                raise InvalidInputError("explicit length set must be nonempty, entries >= 1")
        elif self.kind != "all":
            raise InvalidInputError(f"unknown length-set kind {self.kind!r}")

    @classmethod
    def up_to(cls, k: int) -> "LengthSet":
        return cls("interval", k=k)

    @classmethod
    def exactly(cls, m: int) -> "LengthSet":
        return cls.of((m,))

    @classmethod
    def of(cls, lengths) -> "LengthSet":
        return cls("explicit", members=frozenset(lengths))

    @classmethod
    def all_positive(cls) -> "LengthSet":
        return cls("all")

    def __contains__(self, length: int) -> bool:
        if length < 1:
            return False
        if self.kind == "interval":
            return length <= self.k
        if self.kind == "explicit":
            return length in self.members
        return True

    def mask(self, limit: int) -> int:
        """Bitmask of the members in [1, limit]."""
        if self.kind == "interval":
            top = min(self.k, limit)
            return (1 << (top + 1)) - 2 if top >= 1 else 0
        if self.kind == "explicit":
            out = 0
            for m in self.members:
                if m <= limit:
                    out |= 1 << m
            return out
        return (1 << (limit + 1)) - 2 if limit >= 1 else 0

    def has_multiple_of(self, n: int) -> bool:
        """True iff some member of L is a multiple of n (n >= 1)."""
        if self.kind == "interval":
            return self.k >= n
        if self.kind == "explicit":
            return any(m % n == 0 for m in self.members)
        return True

    def label(self) -> str:
        if self.kind == "interval":
            return f"[1,{self.k}]"
        if self.kind == "explicit":
            return "{" + ",".join(str(m) for m in sorted(self.members)) + "}"
        return "N"


@dataclass(frozen=True)
class FeasibilityTable:
    """Which (sum, length) pairs are realized by subsequences of S.

    ``masks[i]`` is a bitmask over lengths 0..|S| for the element with
    enumeration index i; bit 0 of ``masks[0]`` (the empty subsequence) is
    always set.
    """

    group: GroupSpec
    size: int
    masks: tuple[int, ...]

    def possible(self, g: GroupElement, length: int) -> bool:
        if g.group != self.group:
            raise GroupMismatchError("element from a different group")
        if not 0 <= length <= self.size:
            return False
        return bool(self.masks[group_table(self.group).index[g.coords]] >> length & 1)

    def zero_sum_lengths(self) -> tuple[int, ...]:
        """Nonempty zero-sum subsequence lengths."""
        mask = self.masks[0]
        return tuple(l for l in range(1, self.size + 1) if mask >> l & 1)


def sigma(S: Sequence) -> GroupElement:
    """The sum of all terms of S."""
    fs = S.group.factors
    acc = [0] * len(fs)
    for g, m in S.terms:
        for i, c in enumerate(g.coords):
            acc[i] += m * c
    return S.group.element(acc)


def feasibility(S: Sequence) -> FeasibilityTable:
    """Dynamic-programming table of achievable (sum, length) pairs."""
    table = group_table(S.group)
    m = len(table.elements)
    n = S.length
    if m * (n + 1) > TABLE_CELL_CAP:
        raise ResourceLimitError(f"feasibility table {m}x{n + 1} exceeds cap")
    masks = [0] * m
    masks[0] = 1  # empty subsequence
    for g in S.expand():
        row = table.sub_row(table.index[g.coords])
        masks = [masks[s] | (masks[row[s]] << 1) for s in range(m)]
    return FeasibilityTable(S.group, n, tuple(masks))


def min_zero_sum_length(S: Sequence) -> int | None:
    """Length of the shortest nonempty zero-sum subsequence, or None."""
    lengths = feasibility(S).zero_sum_lengths()
    return lengths[0] if lengths else None


def has_zero_sum_in(S: Sequence, L: LengthSet) -> bool:
    """True iff S has a zero-sum subsequence whose length lies in L."""
    return bool(feasibility(S).masks[0] & L.mask(S.length))


def subsequence_count_table(S: Sequence, mod: int | None = None, max_len: int | None = None):
    """counts[i][l] = number of index subsets of S of size l summing to the
    element with enumeration index i (exact integers, or mod ``mod``), for
    l up to ``max_len`` (default |S|).

    Each element's counts are packed into one int: the count for length l
    is the field of ``width`` bits at bit l * width.  A count of length l is
    at most C(|S|, l) < 2^(|S|+1), so width = the bit length of the largest
    C(|S|, l) with l <= max_len (never more than |S| + 1 bits) holds every
    count, and no field carries into the next.  A term g then costs one
    shift, one add and one mask per element s: counts(s) += counts(s - g)
    << width, with the lengths above max_len masked off.  The fields are
    unpacked, and reduced mod ``mod``, only at the end.
    """
    if max_len is not None and max_len < 0:
        raise InvalidInputError(f"need max_len >= 0, got {max_len}")
    table = group_table(S.group)
    m = len(table.elements)
    n = S.length
    top = n if max_len is None else min(max_len, n)
    if m * (top + 1) > TABLE_CELL_CAP:
        raise ResourceLimitError(f"count table {m}x{top + 1} exceeds cap")
    width = comb(n, min(top, n // 2)).bit_length()
    keep = (1 << width * (top + 1)) - 1  # drops lengths above max_len
    packed = [0] * m
    packed[0] = 1  # the empty subsequence
    for g in S.expand():
        row = table.sub_row(table.index[g.coords])
        packed = [(x + (packed[r] << width)) & keep for x, r in zip(packed, row)]
    field = (1 << width) - 1
    shifts = range(0, width * (top + 1), width)
    if mod:
        return [[(x >> b & field) % mod for b in shifts] for x in packed]
    return [[x >> b & field for b in shifts] for x in packed]


def orbit_canonical(S: Sequence) -> Sequence:
    """Lexicographically least image of S under Aut(G).

    Images are compared as sorted element indices in ``group_table``
    order, which is coordinate order.  Each map's image comes from
    ``groups.automorphism_index_images``, which refuses G over the lister's
    cap; no group_table is read, so G may have more than 10^6 elements.
    """
    G = S.group
    indices = [element_index(G, g.coords) for g in S.expand()]
    best = min(sorted(image) for image in automorphism_index_images(G, indices))
    return Sequence.from_elements(G, (GroupElement(G, element_coords(G, x)) for x in best))
