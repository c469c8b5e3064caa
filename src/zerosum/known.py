"""Published reference values for the zero-sum invariants.

Explicit tables ship in ``data/known_values.txt`` (one row per value, each
tagged with its literature citation); the closed-form families live here as
code.  Lookups return the value together with its source tag so callers can
always tell bundled literature data apart from freshly computed results.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from math import ceil

from .errors import InvalidInputError
from .groups import GroupSpec, d_equals_dstar_known, d_star, parse_group

INVARIANTS = ("s_leq", "s_kexp", "davenport")


@dataclass(frozen=True)
class KnownValue:
    """A reference value and where it comes from."""

    value: int
    source: str


@dataclass(frozen=True)
class BundledRow:
    group: GroupSpec
    invariant: str
    param: int | None
    value: int
    source: str


def _parse_rows(text: str, origin: str) -> tuple[BundledRow, ...]:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [part.strip() for part in line.split(";")]
        if len(parts) != 5:
            raise InvalidInputError(f"{origin}:{lineno}: expected 5 fields, got {len(parts)}")
        group_text, invariant, param_text, value_text, source = parts
        if invariant not in INVARIANTS:
            raise InvalidInputError(f"{origin}:{lineno}: unknown invariant {invariant!r}")
        try:
            param = None if param_text == "-" else int(param_text)
            value = int(value_text)
        except ValueError as exc:
            raise InvalidInputError(f"{origin}:{lineno}: {exc}") from None
        if not source:
            raise InvalidInputError(f"{origin}:{lineno}: empty source citation")
        rows.append(
            BundledRow(
                group=parse_group(group_text),
                invariant=invariant,
                param=param,
                value=value,
                source=source,
            )
        )
    return tuple(rows)


@lru_cache(maxsize=1)
def load_bundled() -> tuple[BundledRow, ...]:
    """All rows of the packaged ``data/known_values.txt``."""
    text = resources.files("zerosum").joinpath("data/known_values.txt").read_text()
    return _parse_rows(text, "known_values.txt")


def _bundled_lookup(G: GroupSpec, invariant: str, param) -> KnownValue | None:
    for row in load_bundled():
        if row.group == G and row.invariant == invariant and row.param == param:
            return KnownValue(value=row.value, source=row.source)
    return None


def known_davenport(G: GroupSpec) -> KnownValue | None:
    """The exact zero-sum constant D(G) when it is known: a bundled row,
    or D*(G) for the group families where equality is a theorem."""
    hit = _bundled_lookup(G, "davenport", None)
    if hit is not None:
        return hit
    if d_equals_dstar_known(G):
        return KnownValue(value=d_star(G), source="D=D* family")
    return None


def known_s_leq(G: GroupSpec, k: int) -> KnownValue | None:
    """The exact value of the shortest-forced-zero-sum threshold s_leq(G, k)
    when published: bundled tables, the k >= D(G) cap, the exponent-2
    homocyclic family, the rank-2 formula, and the two prime-power
    homocyclic formulas."""
    if k < 1:
        raise InvalidInputError(f"need k >= 1, got {k}")
    hit = _bundled_lookup(G, "s_leq", k)
    if hit is not None:
        return hit
    dav = known_davenport(G)
    if dav is not None and k >= dav.value:
        return KnownValue(value=dav.value, source=f"k >= D cap ({dav.source})")
    r = G.rank
    if r >= 2 and G.is_homocyclic() and G.exponent == 2:
        if k == 2:
            return KnownValue(value=2**r, source="FS10/L69/WZ17")
        if k == 3:
            return KnownValue(value=2 ** (r - 1) + 1, source="FS10/L69/WZ17")
        if ceil((2 * r + 2) / 3) <= k <= r:
            return KnownValue(value=r + 2, source="WZ17")
    if r == 2:
        D = d_star(G)  # exact: rank <= 2
        if G.exponent <= k <= D:
            return KnownValue(value=2 * D - k, source="WZ17")
    p = G.p_group_prime() if G.is_homocyclic() else None
    if p is not None:
        D = d_star(G)  # exact: p-group
        if G.exponent == p and 3 <= r < p and k == D - 2:
            return KnownValue(value=D + 1, source="Z23")
        if p != 2 and r == 3 and k == D - G.exponent:
            return KnownValue(value=D + G.exponent, source="Z23")
    return None


def known_s_kexp(G: GroupSpec, k: int) -> KnownValue | None:
    """The exact value of the forced zero-sum of length exactly k*exp(G)
    when published: bundled rows plus the odd-rank exponent-2 family
    s_{2m}(C_2^(2m+1)) = 4m+5 for odd m."""
    if k < 1:
        raise InvalidInputError(f"need k >= 1, got {k}")
    hit = _bundled_lookup(G, "s_kexp", k)
    if hit is not None:
        return hit
    if G.is_homocyclic() and G.exponent == 2 and G.rank == 2 * k + 1 and k % 2 == 1:
        return KnownValue(value=4 * k + 5, source="S20")
    return None
