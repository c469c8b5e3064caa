"""Systematic cross-validation sweeps for the congruence machinery.

Each sweep pits a closed-form prediction against an independent direct
computation over a large parameter family and reports every disagreement.
A passing sweep is the evidence that the digit-based predictions, the
sufficient tests, the row transform and the subsequence-count congruence
are implemented consistently with the ground-truth computations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .criteria import (
    PDecomposition,
    check_4_7,
    check_4_8,
    check_4_9,
    compute_i0,
    first_nonzero_a_index,
    predict_i0,
    row_transform_verify,
    zerosub_guarantee,
)
from .errors import InvalidInputError
from .groups import GroupSpec, d_star, enumerate_elements, make_group
from .sequences import (
    Sequence,
    min_zero_sum_length,
    sigma,
    subsequence_count_table,
)

MAX_RECORDED_VIOLATIONS = 100


@dataclass(frozen=True)
class SweepOutcome:
    """Result of one sweep: how many cases ran and which ones disagreed."""

    name: str
    cases: int
    violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


class _Recorder:
    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.violations: list[str] = []
        self.dropped = 0

    def case(self) -> None:
        self.cases += 1

    def violation(self, message: str) -> None:
        if len(self.violations) < MAX_RECORDED_VIOLATIONS:
            self.violations.append(message)
        else:
            self.dropped += 1

    def outcome(self) -> SweepOutcome:
        violations = list(self.violations)
        if self.dropped:
            violations.append(f"... and {self.dropped} more")
        return SweepOutcome(name=self.name, cases=self.cases, violations=tuple(violations))


def sweep_i0(ps=(3, 5, 7), ts=(0, 1), max_T: int = 400) -> SweepOutcome:
    """Exhaustive check of the i0 predictions with T_len <= max_T, d >= v+1.

    Two tuple families are swept: every refined digit shape (where the
    sufficient tests apply; there T_len >= 2k forces the C(u, c) != 0 branch)
    and a general-u family reaching the C(u, c) = 0 lower-bound branch.
    Per tuple, one windowless a_i scan finds i0 and every check reads it:
    the predicted location (exact or l0-resolved) must equal i0;
    lower-bound cases must have no nonzero a_i below p+d-v; a true
    check_4_7 flag must pin i0 <= p+d-v; check_4_8 must imply check_4_7; a
    true check_4_9 flag must pin i0 = 2, and at v = 0 it must equal
    check_4_7; and the windowed compute_i0 must agree with i0 truncated to
    its window.
    """
    rec = _Recorder("i0-predictions")
    for p in ps:
        for t in ts:
            pt = p**t
            for c1 in range(1, p):
                for d in range(p):
                    k = c1 * pt * p + d
                    for u1 in range(1, p):
                        for u2 in range(pt):
                            u = u1 * pt + u2
                            for v in range(p):
                                T_len = k + u * p + v
                                if T_len > max_T or T_len < 2 * k or d < v + 1:
                                    continue
                                rec.case()
                                label = f"p={p} t={t} c1={c1} d={d} u1={u1} u2={u2} v={v}"
                                dec = PDecomposition(p, T_len, k)
                                if (dec.t, dec.c1, dec.u1, dec.u2, dec.d, dec.v) != (
                                    t, c1, u1, u2, d, v,
                                ):
                                    rec.violation(f"{label}: round-trip mismatch: {dec}")
                                    continue
                                _check_i0_tuple(rec, label, dec)
        for c in range(1, 3 * p):
            for u in range(c + 1, c + 2 * p + 1):
                for v in range(p):
                    for d in range(v + 1, p):
                        k = c * p + d
                        T_len = k + u * p + v
                        if T_len > max_T:
                            continue
                        rec.case()
                        label = f"p={p} general c={c} u={u} d={d} v={v}"
                        _check_i0_tuple(rec, label, PDecomposition(p, T_len, k))
    return rec.outcome()


def _check_i0_tuple(rec, label, dec: PDecomposition) -> None:
    """Check one tuple against a single a_i scan, run far enough to settle
    every check: the prediction, the lower bound, the two sufficient tests
    and the window of compute_i0."""
    p, T_len, k, d, v = dec.p, dec.T_len, dec.k, dec.d, dec.v
    pred = predict_i0(dec)
    if pred.kind == "needs_l0" and pred.value is None:
        rec.violation(f"{label}: l0 scan cap missed")
        return
    bound = p + d - v
    i0 = first_nonzero_a_index(T_len, k, p, max(bound + 4 * p, 2 * k - 2, pred.value))

    def upto(limit):  # the scan truncated to [1, limit]
        return i0 if i0 is not None and i0 <= limit else None

    if pred.kind in ("exact", "needs_l0"):
        scan = upto(pred.value)
        if scan != pred.value:
            rec.violation(f"{label}: predicted i0={pred.value} ({pred.kind}) but scan gives {scan}")
    else:  # lower_bound; kind "none" is excluded by d >= v+1
        early = upto(bound - 1)
        if early is not None:
            rec.violation(f"{label}: lower bound {bound} but a_{early} is nonzero")

    if dec.has_refined_shape:
        flag7 = check_4_7(dec)
        if flag7 and upto(bound) is None:
            rec.violation(f"{label}: check_4_7 true but no nonzero a_i up to {bound}")
        if check_4_8(dec) and not flag7:
            rec.violation(f"{label}: check_4_8 true but check_4_7 false")
        if d == 1:  # the shape check_4_9 takes
            flag9 = check_4_9(dec)
            if flag9 and i0 != 2:
                rec.violation(f"{label}: check_4_9 true but i0 != 2")
            # Both families have v = 0 here (d >= v+1), where a_1 = 0 and
            # a_2 = C(u1, c1) != 0 mod p, so i0 = 2 whatever check_4_9 says.
            # The check that can fail: at v = 0, check_4_9 is check_4_7,
            # whose sign (-1)^(p+1) is 1 mod p.
            if v == 0 and flag9 != flag7:
                rec.violation(f"{label}: check_4_9 is {flag9} but check_4_7 is {flag7}")

    # Windowed variant: with D = 2 the window is [1, 2k-2]; the windowed
    # answer must be the scan truncated to that window.
    windowed = compute_i0(T_len, k, p, D=2)
    expected = upto(2 * k - 2)
    if windowed != expected:
        rec.violation(f"{label}: compute_i0 gave {windowed}, window truth is {expected}")


def _require_cases(name: str, value: int) -> None:
    """A sweep of no cases would report that all of them passed."""
    if value < 1:
        raise InvalidInputError(f"need {name} >= 1, got {value}")


def sweep_row_transform(count: int = 200, seed: int = 0) -> SweepOutcome:
    """Seeded random tuples through the exact row-transform identity."""
    _require_cases("count", count)
    rec = _Recorder("row-transform")
    rng = random.Random(seed)
    for _ in range(count):
        rec.case()
        x = rng.randint(-5, 5)
        c = rng.randint(1, 12)
        k = rng.randint(1, 12)
        u_1 = rng.randint(1, 12)
        u_2 = rng.randint(1, 12)
        lam = rng.randint(1, 12)
        if not row_transform_verify(x, c, k, u_1, u_2, lam):
            rec.violation(f"x={x} c={c} k={k} u_1={u_1} u_2={u_2} lam={lam}")
    return rec.outcome()


def _default_congruence_groups() -> tuple[GroupSpec, ...]:
    return (make_group([2, 2, 2]), make_group([3, 3]), make_group([3, 3, 3]))


def sweep_congruence(samples: int = 500, seed: int = 0, groups=None) -> SweepOutcome:
    """Random sequences of length >= D over small p-groups: for every group
    element the even- and odd-length subsequence counts summing to it must
    agree mod p."""
    _require_cases("samples", samples)
    rec = _Recorder("count-congruence")
    rng = random.Random(seed)
    groups = _default_congruence_groups() if groups is None else tuple(groups)
    for G in groups:
        p = G.p_group_prime()
        if p is None:
            raise InvalidInputError(f"{G} is not a p-group")
        D = d_star(G)  # exact for p-groups
        elements = list(enumerate_elements(G))
        for _ in range(samples):
            rec.case()
            length = rng.randint(D, D + 4)
            S = Sequence.from_elements(G, (rng.choice(elements) for _ in range(length)))
            counts = subsequence_count_table(S, mod=p)
            for idx, row in enumerate(counts):
                even = sum(row[l] for l in range(0, len(row), 2)) % p
                odd = sum(row[l] for l in range(1, len(row), 2)) % p
                if even != odd:
                    rec.violation(f"{G} S={S.format()} element index {idx}: {even} != {odd}")
    return rec.outcome()


def sweep_zerosub_soundness(samples: int = 500, seed: int = 0) -> SweepOutcome:
    """``samples`` random zero-sum sequences over C_3^2 and C_2^3, split
    evenly (C_3^2 takes an odd one): whenever the criterion claims a
    zero-sum subsequence of length <= k-1 exists, a direct minimum-length
    computation must confirm it."""
    _require_cases("samples", samples)
    rec = _Recorder("zerosub-soundness")
    rng = random.Random(seed)
    plans = (
        (make_group([3, 3]), 3, 5, (4, 5)),
        (make_group([2, 2, 2]), 2, 4, (3, 4)),
    )
    for i, (G, p, D, ks) in enumerate(plans):
        elements = [g for g in enumerate_elements(G)]
        # The first samples % len(plans) plans take one case more.
        for _ in range(samples // len(plans) + (i < samples % len(plans))):
            k = rng.choice(ks)
            length = rng.randint(2 * k, 2 * k + 4)
            body = [rng.choice(elements) for _ in range(length - 1)]
            closing = -sigma(Sequence.from_elements(G, body))
            T = Sequence.from_elements(G, body + [closing])
            rec.case()
            report = zerosub_guarantee(T, k, p, D)
            if report.guarantees_short:
                actual = min_zero_sum_length(T)
                if actual is None or actual > k - 1:
                    rec.violation(
                        f"{G} k={k} T={T.format()}: claimed <= {k - 1}, actual {actual}"
                    )
    return rec.outcome()


def run_all_sweeps(
    seed: int = 0,
    max_T: int = 400,
    row_count: int = 200,
    congruence_samples: int = 500,
    soundness_samples: int = 500,
    ps=(3, 5, 7),
) -> tuple[SweepOutcome, ...]:
    """All four sweeps with one shared seed, in a fixed order."""
    return (
        sweep_i0(ps=ps, max_T=max_T),
        sweep_row_transform(count=row_count, seed=seed),
        sweep_congruence(samples=congruence_samples, seed=seed),
        sweep_zerosub_soundness(samples=soundness_samples, seed=seed),
    )
