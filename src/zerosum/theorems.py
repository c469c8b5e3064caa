"""Hypothesis checkers for the upper-bound theorems and the conjecture harness.

Each checker evaluates the named hypotheses of one theorem on concrete
parameters and, when every flag is true, emits the bound the theorem then
asserts.  The Davenport constant inside a claim is exact where a published
family or a completed search provides it and otherwise falls back to D*(G)
with the claim marked conditional.  The conjecture harness tabulates
s_leq(G, D-j) against D+j over the full window, locates the threshold k_G
below which the bound first breaks, and records how the exact-length values
s_{k*exp} sit relative to 2D-1.

Claims and harness rows are independent of one another; they are evaluated
in a fixed order so reports are deterministic.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .criteria import PDecomposition, binom_mod_p
from .errors import InvalidInputError
from .groups import (
    GroupSpec,
    d_star,
    enumerate_elements,
    group_table,
    is_prime,
    make_group,
)
from .known import known_davenport, known_s_kexp, known_s_leq
from .search import SearchConfig, davenport, enumerate_minimal_zero_sum, s_leq
from .sequences import Sequence, feasibility

# Above this order, brute-force searches stop being desk-scale.
DESK_ORDER_CAP = 32


@dataclass(frozen=True)
class TheoremClaim:
    """One theorem instance: named hypothesis flags and the resulting bound.

    ``claimed_bound`` is the asserted upper bound for s_leq(group, k); it is
    None unless every hypothesis flag is true.  ``conditional_on_d_star``
    marks claims whose D(G) had to be assumed equal to D*(G).
    """

    theorem: str
    group: GroupSpec
    k: int | None
    hypotheses: tuple[tuple[str, bool], ...]
    claimed_bound: int | None
    d_value: int
    d_source: str
    conditional_on_d_star: bool
    equality_expected: bool = False

    @property
    def applies(self) -> bool:
        return all(value for _, value in self.hypotheses)

    @property
    def verifiable_at_desk(self) -> bool:
        return self.group.order <= DESK_ORDER_CAP


def davenport_value(
    G: GroupSpec,
    cfg: SearchConfig | None = None,
) -> tuple[int, str, bool]:
    """(D, source, conditional): exact from a published family or bundled
    row, else exact by search for desk-scale groups, else D*(G) flagged as
    an assumption."""
    hit = known_davenport(G)
    if hit is not None:
        return hit.value, hit.source, False
    if G.order <= DESK_ORDER_CAP:
        result = davenport(G, cfg)
        if result.complete and result.value is not None:
            return result.value, "search", False
    return d_star(G), "assumed D=D*", True


def check_thm_1_8(
    G: GroupSpec,
    cfg: SearchConfig | None = None,
) -> TheoremClaim:
    """Bound s_leq(G, D-2) <= D+2 for groups of rank >= 2 other than C_2^3
    and C_2^4, provided D-2 >= exp(G); equality is additionally expected
    when D = D* and exp(G) >= (D-1)/2."""
    D, d_source, conditional = davenport_value(G, cfg)
    excluded = G in (make_group([2, 2, 2]), make_group([2, 2, 2, 2]))
    hypotheses = (
        ("rank >= 2", G.rank >= 2),
        ("group not C_2^3 or C_2^4", not excluded),
        ("D-2 >= exp", D - 2 >= G.exponent),
    )
    applies = all(v for _, v in hypotheses)
    equality = applies and not conditional and D == d_star(G) and 2 * G.exponent >= D - 1
    return TheoremClaim(
        theorem="thm_1_8",
        group=G,
        k=D - 2,
        hypotheses=hypotheses,
        claimed_bound=D + 2 if applies else None,
        d_value=D,
        d_source=d_source,
        conditional_on_d_star=conditional,
        equality_expected=equality,
    )


def check_lemma_5_1(G: GroupSpec, k: int, S: Sequence) -> bool:
    """Binomial guarantee for one sequence: with G a p-group, k in
    [exp(G)+1, D], |S| = 2D-k+1 and S having no zero-sum subsequence of
    length in [D+1, |S|], a nonzero C(D, k-1) mod p forces a zero-sum
    subsequence of length <= k-1.  Returns that flag; preconditions raise."""
    p = G.p_group_prime()
    if p is None:
        raise InvalidInputError(f"{G} is not a p-group")
    if S.group != G:
        raise InvalidInputError(f"sequence is over {S.group}, not {G}")
    D, _, conditional = davenport_value(G)
    if conditional:
        raise InvalidInputError(f"D({G}) is not exactly known")
    if not G.exponent + 1 <= k <= D:
        raise InvalidInputError(f"need k in [exp+1, D] = [{G.exponent + 1}, {D}], got {k}")
    if len(S) != 2 * D - k + 1:
        raise InvalidInputError(f"need |S| = 2D-k+1 = {2 * D - k + 1}, got {len(S)}")
    long_lengths = [l for l in feasibility(S).zero_sum_lengths() if l > D]
    if long_lengths:
        raise InvalidInputError(f"S has a zero-sum subsequence of length {long_lengths[0]} > D")
    return binom_mod_p(D, k - 1, p) != 0


def check_thm_1_9(G: GroupSpec, k: int) -> TheoremClaim:
    """Bound s_leq(G, k-1) <= 2D-k+1 for p-groups via the congruence
    criterion.  The digit shape k = c1 * p^(t+1) + d with c1 in [1, p-1] and
    d in [0, p-1] must exist; the window hypothesis involving v is taken in
    the worst case over all zero-sum lengths |T| in [2k, 2D-k+1] (vacuously
    true when that range is empty)."""
    p = G.p_group_prime()
    if p is None:
        raise InvalidInputError(f"{G} is not a p-group")
    D = d_star(G)  # exact: p-group
    if not G.exponent + 1 <= k <= D:
        raise InvalidInputError(f"need k in [exp+1, D] = [{G.exponent + 1}, {D}], got {k}")
    # k = c*p + d with c = c1 * p^t: the digits of k alone, read from the
    # pair (2k, k), which the constructor always accepts.
    dec = PDecomposition(p, 2 * k, k)
    if dec.c < 1:
        raise InvalidInputError(f"k = {k} has no digit shape c1*p^(t+1)+d with c1 >= 1")
    if dec.t is None:
        c1 = dec.c // math.gcd(dec.c, p ** dec.c.bit_length())  # c without its p-part
        raise InvalidInputError(f"k = {k} has leading digit c1 = {c1} > p-1")
    t, d = dec.t, dec.d

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
    return TheoremClaim(
        theorem="thm_1_9",
        group=G,
        k=k - 1,
        hypotheses=hypotheses,
        claimed_bound=2 * D - k + 1 if applies else None,
        d_value=D,
        d_source="D=D* family",
        conditional_on_d_star=False,
    )


def thm_1_10_claims(G: GroupSpec) -> list[TheoremClaim]:
    """The three resolved instances of the congruence bound whose case shape
    G has, in case order.  On G = C_p^r with D = D*(G), exact for p-groups:
    (i) p = 2 and r = 2^(t+1)-2 for some t >= 1, with k-1 = (r+2)/2;
    (ii) p >= 5 and r = 4, with k-1 = 2p;
    (iii) k-1 = (r-1)p in [p, D].
    Each claims s_leq(G, k-1) <= 2D-k+1."""
    if not G.is_homocyclic() or not is_prime(G.exponent):
        return []
    p, r = G.exponent, G.rank
    D = d_star(G)  # exact: p-group
    shapes = (  # (case, whether G has its shape, k-1)
        ("i", p == 2 and (r + 2) & (r + 1) == 0, (r + 2) // 2),
        ("ii", p >= 5 and r == 4, 2 * p),
        ("iii", p <= (r - 1) * p <= D, (r - 1) * p),
    )
    return [
        TheoremClaim(
            theorem=f"thm_1_10({case})",
            group=G,
            k=k1,
            hypotheses=((f"case {case} shape", True),),
            claimed_bound=2 * D - k1,
            d_value=D,
            d_source="D=D* family",
            conditional_on_d_star=False,
        )
        for case, fits, k1 in shapes
        if fits
    ]


def check_thm_1_10(case: str, **params) -> TheoremClaim:
    """The ``thm_1_10_claims`` claim of one case, on the group its
    parameters name: case i takes t >= 1 (G = C_2^(2^(t+1)-2)), case ii a
    prime p (G = C_p^4), case iii a prime p and d >= 1 (G = C_p^d).  A
    group without the case's shape raises."""
    expected = {"i": {"t"}, "ii": {"p"}, "iii": {"p", "d"}}.get(case)
    if expected is None:
        raise InvalidInputError(f"unknown case {case!r}")
    if set(params) != expected:
        raise InvalidInputError(f"case {case} takes parameters {sorted(expected)}")
    if case == "i":
        if params["t"] < 1:
            raise InvalidInputError("need t >= 1")
        G = make_group([2] * (2 ** (params["t"] + 1) - 2))
    else:
        p, d = params["p"], params.get("d", 4)  # case ii is C_p^4
        if not is_prime(p):
            raise InvalidInputError(f"p = {p} is not prime")
        if d < 1:
            raise InvalidInputError("need d >= 1")
        G = make_group([p] * d)
    for claim in thm_1_10_claims(G):
        if claim.theorem == f"thm_1_10({case})":
            return claim
    raise InvalidInputError(f"{G} does not have the shape of Theorem 1.10 case {case}")


@dataclass(frozen=True)
class PropertyReport:
    """Result of a property check over enumerated or sampled cases."""

    group: GroupSpec
    cases: int
    violations: tuple[str, ...]
    exhaustive: bool

    @property
    def passed(self) -> bool:
        return not self.violations


def lemma_3_6_property(
    G: GroupSpec,
    trials: int | None = None,
    seed: int = 0,
    cfg: SearchConfig | None = None,
) -> PropertyReport:
    """Appending any element twice to a minimal zero-sum sequence of length
    D-1 forces a zero-sum subsequence of length <= D-2, for rank >= 2 groups
    not of the form C_2 + C_2m.

    ``trials`` None enumerates every (T, g) pair; otherwise that many pairs
    (at least one) are sampled with the given seed.  Each pair is decided
    from one feasibility table per minimal sequence T, not one per pair:
    the shortest zero-sum subsequence of T g^2 is the minimum, over the
    number a in {0, 1, 2} of copies of g it uses, of a plus the shortest
    U in T with sigma(U) = -a*g (see ``_two_copy_shortest``).
    """
    if trials is not None and trials < 1:
        raise InvalidInputError(f"need trials >= 1, got {trials}")
    if G.rank < 2:
        raise InvalidInputError("need rank >= 2")
    if G.rank == 2 and G.factors[0] == 2:
        raise InvalidInputError(f"{G} has the excluded form C_2 + C_2m")
    D, _, conditional = davenport_value(G, cfg)
    if conditional:
        raise InvalidInputError(f"D({G}) is not exactly known")
    minimal = enumerate_minimal_zero_sum(G, D - 1, cfg)
    if not minimal.complete:
        raise InvalidInputError("enumeration budget exhausted")
    sequences = minimal.sequences
    elements = list(enumerate_elements(G))
    if trials is None:
        # T by T; each T's lengths are dropped once its pairs are read.
        cases = (
            (T, g, shortest)
            for T in sequences
            for g, shortest in zip(elements, _two_copy_shortest(T))
        )
    else:
        cases = _sampled_cases(sequences, elements, trials, seed)
    violations = []
    count = 0
    for T, g, shortest in cases:
        count += 1
        if shortest is None or shortest > D - 2:
            violations.append(f"T={T.format()} g={g}: shortest zero-sum {shortest}")
    return PropertyReport(
        group=G,
        cases=count,
        violations=tuple(violations),
        exhaustive=trials is None,
    )


def _sampled_cases(sequences, elements, trials: int, seed: int):
    """(T, g, shortest) for ``trials`` pairs drawn with the seed: T, then g,
    per pair.  Drawing an index of a list takes the same random draw as
    drawing from the list, so the pairs are those of ``rng.choice``."""
    rng = random.Random(seed)
    lengths: dict[int, list[int | None]] = {}  # per drawn T, by index
    for _ in range(trials):
        t = rng.choice(range(len(sequences)))
        i = rng.choice(range(len(elements)))
        if t not in lengths:
            lengths[t] = _two_copy_shortest(sequences[t])
        yield sequences[t], elements[i], lengths[t][i]


def _two_copy_shortest(T: Sequence) -> list[int | None]:
    """Per element g, in enumeration order, the length of the shortest
    nonempty zero-sum subsequence of T g^2 (None if there is none), equal
    to ``min_zero_sum_length(T.with_term(g, 2))``.

    Such a subsequence uses a in {0, 1, 2} copies of g and a U in T with
    sigma(U) = -a*g, U nonempty when a = 0, so one feasibility table of T
    answers every g: its mask at -a*g, shifted up by a, holds the lengths
    a + |U| those subsequences take."""
    table = group_table(T.group)
    masks = feasibility(T).masks
    nonempty = masks[0] & ~1  # a = 0
    out = []
    for i, neg in enumerate(table.neg):
        # sub_row(i)[neg] is -g - g = -2g.
        zero = nonempty | masks[neg] << 1 | masks[table.sub_row(i)[neg]] << 2
        out.append((zero & -zero).bit_length() - 1 if zero else None)
    return out


# --- conjecture harness ------------------------------------------------------


@dataclass(frozen=True)
class ConjectureRow:
    """One table row: is s_leq(G, m) <= D+j for m = D-j?

    ``value`` is the exact invariant when available; when a budgeted search
    only established a longer extremal sequence, ``value`` is that lower
    bound and ``is_lower_bound`` is set.  ``holds`` is None when the data
    cannot decide the row.
    """

    j: int
    m: int
    value: int | None
    is_lower_bound: bool
    bound: int
    holds: bool | None
    source: str


@dataclass(frozen=True)
class KexpRow:
    """How one exact-length value s_{k*exp} sits relative to 2D-1.

    ``region`` says where k*exp falls relative to (D+1)/2; the conjecture
    expects value <= 2D-1 in region "at_least_half" and value > 2D-1 in
    region "below_half".  ``consistent`` records whether the data agrees.
    """

    k: int
    kexp: int
    value: int
    threshold: int
    region: str
    relation: str
    consistent: bool
    source: str


@dataclass(frozen=True)
class ConjectureReport:
    group: GroupSpec
    source: str
    d_value: int
    d_source: str
    rows: tuple[ConjectureRow, ...]
    k_g: int | None
    conjecture_k_half: bool | None
    monotone_consistent: bool
    kexp_rows: tuple[KexpRow, ...]


def _bundled_row(G, m) -> tuple[int | None, bool, str]:
    """(value, is_lower_bound, source) for s_leq(G, m) from published data."""
    hit = known_s_leq(G, m)
    if hit is None:
        return None, False, "missing"
    return hit.value, False, hit.source


def _computed_row(G, m, cfg) -> tuple[int | None, bool, str]:
    """(value, is_lower_bound, source) for s_leq(G, m) by search; a cut
    search yields the lower bound it established."""
    result = s_leq(G, m, cfg)
    if result.complete and result.value is not None:
        return result.value, False, "search"
    return (result.best_length or 0) + 1, True, "search (budget exhausted)"


def conjecture_harness(
    G: GroupSpec,
    source: str = "computed",
    cfg: SearchConfig | None = None,
) -> ConjectureReport:
    """Tabulate s_leq(G, D-j) against D+j for D-j in [exp(G), D-1], locate
    the threshold k_G (least m such that every row with m' >= m holds), and
    test the k_G = (D+1)/2 prediction.

    ``source`` picks where values come from: "computed" searches with cfg,
    "bundled" uses published values only.  Rows a source cannot decide get
    holds = None, and k_G is None (unknown) when the crossing is not pinned
    down.  The s_{k*exp} comparison rows always come from published data.
    """
    if source not in ("computed", "bundled"):
        raise InvalidInputError(f"unknown source {source!r}")
    if source == "bundled":
        hit = known_davenport(G)
        if hit is None:
            raise InvalidInputError(f"no bundled D({G})")
        D, d_source = hit.value, hit.source
    else:
        D, d_source, conditional = davenport_value(G, cfg)
        if conditional:
            raise InvalidInputError(f"D({G}) is not exactly known at desk scale")

    rows = []
    for j in range(1, D - G.exponent + 1):
        m = D - j
        if source == "bundled":
            value, is_lower_bound, row_source = _bundled_row(G, m)
        else:
            value, is_lower_bound, row_source = _computed_row(G, m, cfg)
        bound = D + j
        if value is None:
            holds = None
        elif is_lower_bound:
            holds = False if value > bound else None
        else:
            holds = value <= bound
        rows.append(ConjectureRow(
            j=j, m=m, value=value, is_lower_bound=is_lower_bound,
            bound=bound, holds=holds, source=row_source,
        ))

    # k_G: walk m downward from D-1; the first non-holding row stops the run.
    k_g: int | None = G.exponent
    for row in rows:
        if row.holds is True:
            k_g = row.m
            continue
        k_g = row.m + 1 if row.holds is False else None
        break
    monotone = True
    seen_false = False
    for row in rows:
        if row.holds is False:
            seen_false = True
        elif row.holds is True and seen_false:
            monotone = False
    conjecture_k_half = None if k_g is None else (2 * k_g == D + 1)

    kexp_rows = []
    for k in range(1, D // G.exponent + 2):
        hit = known_s_kexp(G, k)
        if hit is None:
            continue
        kexp = k * G.exponent
        threshold = 2 * D - 1
        at_least_half = 2 * kexp >= D + 1
        region = "at_least_half" if at_least_half else "below_half"
        relation = "<=" if hit.value <= threshold else ">"
        consistent = (hit.value <= threshold) if at_least_half else (hit.value > threshold)
        kexp_rows.append(KexpRow(
            k=k, kexp=kexp, value=hit.value, threshold=threshold,
            region=region, relation=relation, consistent=consistent,
            source=hit.source,
        ))

    return ConjectureReport(
        group=G,
        source=source,
        d_value=D,
        d_source=d_source,
        rows=tuple(rows),
        k_g=k_g,
        conjecture_k_half=conjecture_k_half,
        monotone_consistent=monotone,
        kexp_rows=tuple(kexp_rows),
    )
