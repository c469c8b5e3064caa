"""Position-subset oracle for witnesses, independent of the zerosum package.

It reads sequences in the package's printed form (``"0,1^2; 1,0"``) and
checks zero sums by adding coordinates directly, subset by subset.  It uses
none of the package's group tables or subset-sum tables, so it can judge
the search engine's witnesses.
"""

from __future__ import annotations

from itertools import combinations


def parse_terms(text: str) -> list[tuple[int, ...]]:
    """Expand ``"c,c,...^m; ..."`` into a list of coordinate tuples."""
    elems: list[tuple[int, ...]] = []
    for term in text.split(";"):
        term = term.strip()
        if not term:
            continue
        coords, _, mult = term.partition("^")
        elem = tuple(int(c) for c in coords.split(","))
        elems.extend([elem] * (int(mult) if mult else 1))
    return elems


def zero_sum_subset(factors, elems, lengths):
    """Positions of a zero-sum subsequence whose length is in ``lengths``,
    or None.  Tries every subset of positions of each admissible size."""
    n = len(elems)
    rank = len(factors)
    for size in sorted(lengths):
        if not 1 <= size <= n:
            continue
        for positions in combinations(range(n), size):
            if all(sum(elems[p][i] for p in positions) % factors[i] == 0 for i in range(rank)):
                return positions
    return None


def witness_error(factors, text: str, value: int, lengths) -> str | None:
    """Why ``text`` is not a witness for s_L(G) = value, or None if it is.

    A witness has length value-1, its terms lie in G, and it has no
    zero-sum subsequence whose length is in L (``lengths`` holds the members
    of L up to the witness length).
    """
    elems = parse_terms(text)
    if len(elems) != value - 1:
        return f"witness length {len(elems)}, expected {value - 1}"
    for e in elems:
        if len(e) != len(factors) or any(not 0 <= c < n for c, n in zip(e, factors)):
            return f"term {e} is not an element of C{'xC'.join(map(str, factors))}"
    hit = zero_sum_subset(factors, elems, lengths)
    if hit is not None:
        return f"zero-sum subsequence of length {len(hit)} at positions {hit}"
    return None
