"""The three workloads: their inputs, one pass over them, and the checks on
every answer.

``ladder``       serial exact searches; the search kernel does nearly all the
                 work.
``partitioned``  the same kind of searches split at depth 2 over 2 pool
                 workers: dispatch, per-subtask replay, merge, load balance.
``harness``      many small calls across the other modules (scripts, CLI
                 sweep, orbit canonical forms, inverse-family matching,
                 enumeration, lemma check, construction grid).

Every call goes through the package's public names, looked up at call time,
so the tracer's wrappers see it.  Pinned values below were measured at the
commit that added this benchmark; node counts and witnesses are recorded in
the results, and only values and witness validity decide correctness.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import random
import resource
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from oracle import parse_terms, witness_error, zero_sum_subset


@dataclass(frozen=True)
class Query:
    name: str
    factors: tuple[int, ...]
    invariant: str  # "davenport", "s_leq", "s_kexp" or "s_L"
    param: object  # k for s_leq / s_kexp, the member tuple for s_L, else None
    symmetry: bool
    value: int
    nodes: int  # serial search
    pruned: int
    witness: str

    def lengths(self) -> tuple[int, ...]:
        """Members of L up to the witness length, for the oracle."""
        top = self.value - 1
        if self.invariant == "davenport":
            return tuple(range(1, top + 1))
        if self.invariant == "s_leq":
            return tuple(range(1, min(self.param, top) + 1))
        if self.invariant == "s_kexp":
            return (self.param * max(self.factors),)
        return tuple(m for m in self.param if m <= top)

    def bundled_key(self):
        """(invariant, param) as the bundled table spells it, or None."""
        if self.invariant == "davenport":
            return ("davenport", None)
        if self.invariant in ("s_leq", "s_kexp"):
            return (self.invariant, self.param)
        return None


QUERIES = {q.name: q for q in (
    Query("c2x2x2x2x2-dav", (2, 2, 2, 2, 2), "davenport", None, False, 6, 114205, 524221,
          "0,0,0,0,1^1; 0,0,0,1,0^1; 0,0,1,0,0^1; 0,1,0,0,0^1; 1,0,0,0,0^1"),
    Query("c3x3x3-dav", (3, 3, 3), "davenport", None, False, 7, 138425, 591469,
          "0,0,1^2; 0,1,0^2; 1,0,0^2"),
    Query("c5x5-dav", (5, 5), "davenport", None, False, 9, 138865, 600505,
          "0,1^4; 1,0^4"),
    Query("c3x3x3-leq4", (3, 3, 3), "s_leq", 4, False, 10, 421877, 1603857,
          "0,0,1^2; 0,1,0^2; 0,1,1^1; 1,0,0^2; 1,0,1^1; 1,1,0^1"),
    Query("c5x5-leq5", (5, 5), "s_leq", 5, False, 13, 288025, 1210174,
          "0,1^4; 1,0^4; 1,1^4"),
    Query("c3x3x3-leq3-sym", (3, 3, 3), "s_leq", 3, True, 17, 65207, 302286,
          "0,0,1^2; 0,1,0^2; 0,1,1^2; 1,0,0^2; 1,0,1^2; 1,1,2^2; 1,2,2^2; 2,1,2^2"),
    Query("c3x3x3-egz-sym", (3, 3, 3), "s_kexp", 1, True, 19, 611689, 2599940,
          "0,0,0^2; 0,0,1^2; 0,1,0^2; 0,1,1^2; 1,0,0^2; 1,0,1^2; 1,1,2^2; 1,2,2^2; 2,1,2^2"),
    Query("c3x3x3-2exp-sym", (3, 3, 3), "s_kexp", 2, True, 13, 226936, 1137986,
          "0,0,0^5; 0,0,1^2; 0,1,0^2; 1,0,0^2; 1,1,1^1"),
    Query("c3x3x3x3-dav-sym", (3, 3, 3, 3), "davenport", None, True, 9, 80791, 1727274,
          "0,0,0,1^2; 0,0,1,0^2; 0,1,0,0^2; 1,0,0,0^2"),
    Query("c2x10-dav", (2, 10), "davenport", None, False, 11, 24643, 75988,
          "0,1^9; 1,0^1"),
    Query("c3x3x3-l3.6-sym", (3, 3, 3), "s_L", (3, 6), True, 10, 15940, 93944,
          "0,0,0^2; 0,0,1^2; 0,1,0^2; 1,0,0^2; 1,1,1^1"),
    Query("c6x6-dav", (6, 6), "davenport", None, False, 11, 2111759, 10990950,
          "0,1^5; 1,0^5"),
)}

LADDER = ("c2x2x2x2x2-dav", "c3x3x3-dav", "c5x5-dav", "c3x3x3-leq4", "c5x5-leq5",
          "c3x3x3-leq3-sym", "c3x3x3-egz-sym", "c3x3x3-2exp-sym", "c3x3x3x3-dav-sym",
          "c2x10-dav", "c3x3x3-l3.6-sym")
# Partitioned node counts at depth 2 (they include the partitioning pass).
PARTITIONED = {"c3x3x3-leq4": 422215, "c5x5-leq5": 288313, "c3x3x3-egz-sym": 611694,
               "c3x3x3x3-dav-sym": 80793, "c6x6-dav": 2112370}
PARALLEL_DEPTH = 2
WORKERS = 2

# conjecture_scan --max-order 27 --source computed: group -> (D, k_G).
SCAN_K_G = {
    "C2^2": (3, 2), "C2xC4": (5, 4), "C2xC6": (7, 6), "C2xC8": (9, 8), "C2xC10": (11, 10),
    "C2xC12": (13, 12), "C3^2": (5, 3), "C3xC6": (8, 6), "C3xC9": (11, 9), "C4^2": (7, 4),
    "C5^2": (9, 5), "C2^3": (4, 3), "C2^2xC4": (6, 4), "C2^2xC6": (8, 6), "C3^3": (7, 4),
    "C2^4": (5, 4),
}
SWEEP_SUITES = ("i0-predictions", "row-transform", "count-congruence", "zerosub-soundness")
ENUM_C3X3_LEQ3_LEN4 = ("0,1^2; 1,0^2", "0,1^2; 1,0^1; 1,1^1", "0,1^2; 1,0^1; 2,1^1")
LEMMA_C4X4_CASES = 6528
ORBIT_GROUPS = (((5, 5), 6), ((3, 3, 3), 1))  # (factors, sequences per pass)
ORBIT_LENGTH = 8
MATCH_NS = (5, 7)


def cpu_seconds() -> tuple[float, float]:
    """(this process, reaped children) user+system CPU seconds."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


class Checks:
    """Counts operations and the ones that failed.

    An operation fails if it raises, returns a wrong value, returns an
    invalid witness, or ends incomplete when it should complete.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, label: str, op) -> None:
        """``op()`` returns None when the answer is right, else a reason."""
        self.attempted += 1
        try:
            problem = op()
        except Exception as exc:  # any exception is a failed operation
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem:
            self.failures.append(f"{label}: {problem}")


# --- search workloads ---------------------------------------------------------


def solve(zs, q: Query, cfg):
    G = zs.make_group(q.factors)
    if q.invariant == "davenport":
        return zs.davenport(G, cfg)
    if q.invariant == "s_leq":
        return zs.s_leq(G, q.param, cfg)
    if q.invariant == "s_kexp":
        return zs.s_kexp(G, q.param, cfg)
    return zs.s_L(G, zs.LengthSet.of(q.param), cfg)


def answer_error(q: Query, result) -> str | None:
    if not result.complete:
        return "search ended incomplete"
    if result.value != q.value:
        return f"value {result.value}, expected {q.value}"
    if result.witness is None:
        return "no witness"
    return witness_error(q.factors, str(result.witness), q.value, q.lengths())


def timed_solve(zs, q: Query, cfg) -> tuple[object, dict]:
    cpu0 = cpu_seconds()
    t0 = perf_counter()
    result = solve(zs, q, cfg)
    seconds = perf_counter() - t0
    cpu1 = cpu_seconds()
    return result, {
        "query": q.name, "value": result.value, "nodes": result.stats.nodes,
        "pruned": result.stats.pruned, "witness": str(result.witness),
        "s": seconds, "cpu_self_s": cpu1[0] - cpu0[0], "cpu_children_s": cpu1[1] - cpu0[1],
    }


def bundled_cross_check(zs, names, checks: Checks) -> int:
    """Compare the pinned values with every matching bundled row; returns
    the number of rows compared."""
    rows = zs.load_bundled()
    compared = 0
    for name in names:
        q = QUERIES[name]
        key = q.bundled_key()
        G = zs.make_group(q.factors)
        for row in rows:
            if row.group == G and (row.invariant, row.param) == key:
                compared += 1
                checks.run(f"bundled {name}", lambda row=row, q=q: None if row.value == q.value
                           else f"pinned {q.value}, bundled {row.value} ({row.source})")
    return compared


def warm_tables(zs, factor_lists) -> float:
    """Build each group's table and every addition row, as the first
    search on the group would; returns the seconds taken."""
    t0 = perf_counter()
    for factors in factor_lists:
        table = zs.groups.group_table(zs.make_group(factors))
        for gi in range(len(table.elements)):
            table.add_row(gi)
    return perf_counter() - t0


class SearchWorkload:
    modules = ()

    def __init__(self, zs, names, partitioned: bool):
        self.zs = zs
        self.names = list(names)
        self.partitioned = partitioned

    def setup(self, seed: int, checks: Checks) -> None:
        random.Random(seed).shuffle(self.names)
        bundled_cross_check(self.zs, self.names, checks)
        self.table_s = warm_tables(self.zs, sorted({QUERIES[n].factors for n in self.names}))

    def config(self, q: Query):
        if self.partitioned:
            return self.zs.SearchConfig(symmetry_reduction=q.symmetry,
                                        parallel_depth=PARALLEL_DEPTH, workers=WORKERS)
        return self.zs.SearchConfig(symmetry_reduction=q.symmetry)

    def solve_checked(self, checks: Checks, label: str, q: Query, cfg, compare=None):
        """One checked search; returns its record, or None if it raised."""
        holder = {}

        def op():
            result, holder["record"] = timed_solve(self.zs, q, cfg)
            return answer_error(q, result) or (compare(result) if compare else None)

        checks.run(label, op)
        return holder.get("record")

    def run_pass(self, checks: Checks, tracer=None) -> list[dict]:
        records = []
        for name in self.names:
            q = QUERIES[name]
            with tracer.span("query." + name) if tracer else contextlib.nullcontext():
                records.append(self.solve_checked(checks, name, q, self.config(q)))
        return [r for r in records if r is not None]

    def count_notes(self, records) -> list[str]:
        """Queries whose node count differs from the record above.  Not a
        failure: a change to the search may move counts on purpose."""
        recorded = PARTITIONED if self.partitioned else {n: QUERIES[n].nodes for n in self.names}
        moved = {r["query"]: r["nodes"] for r in records if r["nodes"] != recorded[r["query"]]}
        return [f"nodes moved from the record: {q} {recorded[q]} -> {n}"
                for q, n in sorted(moved.items())]

    def serial_reference(self, checks: Checks, partitioned_records) -> list[dict]:
        """Solve each query serially; every partitioned answer must equal it."""
        refs = []
        for name in self.names:
            q = QUERIES[name]

            def compare(result, name=name):
                serial = (result.value, str(result.witness))
                for rec in partitioned_records:
                    if rec["query"] == name and (rec["value"], rec["witness"]) != serial:
                        return f"partitioned answer {rec['value']} {rec['witness']!r} != serial {serial}"
                return None

            refs.append(self.solve_checked(checks, "serial " + name, q,
                                           self.zs.SearchConfig(symmetry_reduction=q.symmetry),
                                           compare))
        return [r for r in refs if r is not None]


# --- harness workload ---------------------------------------------------------


def random_invertible(rng: random.Random, n: int, r: int) -> list[list[int]]:
    """A uniformly random invertible r x r matrix over Z_n (n prime)."""
    while True:
        mat = [[rng.randrange(n) for _ in range(r)] for _ in range(r)]
        if _rank_mod_p(mat, n) == r:
            return mat


def _rank_mod_p(mat, p: int) -> int:
    rows = [row[:] for row in mat]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] % p), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][col] % p:
                f = rows[i][col] * inv
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def transform(mat, n: int, elems):
    return [tuple(sum(m * c for m, c in zip(row, e)) % n for row in mat) for e in elems]


def load_script(root: Path, name: str):
    path = root / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class HarnessWorkload:
    def __init__(self, zs, root: Path):
        self.zs = zs
        self.scan = load_script(root, "conjecture_scan")
        self.modules = (self.scan,)  # bind zerosum names the tracer must wrap

    def count_notes(self, records) -> list[str]:
        return []

    def setup(self, seed: int, checks: Checks) -> None:
        zs = self.zs
        self.seed = seed
        zs.load_bundled()
        rng = random.Random(seed)
        groups = set(self.scan.factor_chains(27, 2))
        groups.update(f for f, _ in ORBIT_GROUPS)
        groups.update((n, n) for n in MATCH_NS)

        # orbit_canonical inputs: S and its image under a random automorphism.
        self.orbit_inputs = []
        for factors, count in ORBIT_GROUPS:
            n, r = factors[0], len(factors)
            elements = list(zs.enumerate_elements(zs.make_group(factors)))
            for _ in range(count):
                elems = [rng.choice(elements).coords for _ in range(ORBIT_LENGTH)]
                image = transform(random_invertible(rng, n, r), n, elems)
                self.orbit_inputs.append((factors, elems, image))

        # match_inverse_structure inputs: a member's basis image (True) and a
        # non-member (False).  The non-member is the image with one term
        # replaced by the negative of another, so it has a zero-sum
        # subsequence of length <= 2, which no family member has.
        self.match_inputs = []
        for n in MATCH_NS:
            for k in range(n):
                member = rng.choice(zs.inverse_family_members(n, k))
                image = transform(random_invertible(rng, n, 2), n, parse_terms(str(member)))
                self.match_inputs.append((n, k, image, True))
                i, j = rng.sample(range(len(image)), 2)
                other = list(image)
                other[i] = tuple(-c % n for c in image[j])
                checks.run(f"non-member n={n} k={k}", lambda other=other, n=n: None
                           if zero_sum_subset((n, n), other, range(1, 3)) else "no short zero-sum")
                self.match_inputs.append((n, k, other, False))

        # verify_construction grid: (construction, params, length, min zero-sum).
        self.grid = []
        for n in (2, 3, 4, 5):
            for r in (2, 3):
                for k in range(n):
                    self.grid.append(("lowercnr", (n, r, k), 2 ** (r - 1) * (n - 1) + k, 2 * n - k))
                    groups.add((n,) * r)
        for factors in ((2, 4), (3, 6), (4, 4), (2, 2, 4), (3, 3, 3), (5, 5)):
            d_star = 1 + sum(f - 1 for f in factors)
            exp = max(factors)
            for k in range(d_star):
                if exp <= d_star - k <= 2 * exp - 1:
                    self.grid.append(("lower_general", (factors, k), d_star + k - 1, d_star - k + 1))
            groups.add(factors)
        groups.update({(3, 3), (4, 4)})
        self.table_s = warm_tables(zs, sorted(groups))

    def run_pass(self, checks: Checks, tracer=None) -> list[dict]:
        steps = []

        def step(name, fn):
            t0 = perf_counter()
            span = tracer.span("step." + name) if tracer else contextlib.nullcontext()
            with span:
                fn()
            steps.append({"step": name, "s": perf_counter() - t0})

        def orbits():
            for i, (factors, elems, image) in enumerate(self.orbit_inputs):
                checks.run(f"orbit {factors} #{i}", lambda: self._orbit(factors, elems, image))

        def matches():
            for n, k, elems, member in self.match_inputs:
                checks.run(f"match n={n} k={k} member={member}",
                           lambda: self._match(n, k, elems, member))

        def grid():
            for construction, params, length, min_zs in self.grid:
                checks.run(f"verify {construction} {params}",
                           lambda: self._verify(construction, params, length, min_zs))

        step("conjecture_scan", lambda: checks.run("conjecture_scan", self._scan))
        step("sweep", lambda: checks.run("sweep", self._sweep))
        step("orbit", orbits)
        step("match", matches)
        step("enumerate", lambda: checks.run("enumerate_extremal", self._enumerate))
        step("lemma", lambda: checks.run("lemma_3_6_property", self._lemma))
        step("verify", grid)
        return steps

    def _scan(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.scan.main(["--max-order", "27", "--source", "computed"])
        if rc != 0:
            return f"exit code {rc}"
        seen = {}
        for line in out.getvalue().splitlines():
            tokens = line.split()
            if len(tokens) >= 8 and tokens[0] in SCAN_K_G:
                seen[tokens[0]] = (int(tokens[2]), int(tokens[-4]))
        if seen != SCAN_K_G:
            wrong = sorted(g for g in SCAN_K_G if seen.get(g) != SCAN_K_G[g])
            return f"(D, k_G) differs for {wrong}: {[seen.get(g) for g in wrong]}"
        return None

    def _sweep(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = self.zs.cli.main(["sweep", "--seed", str(self.seed), "--p", "3,5,7,11"])
        payload = json.loads(out.getvalue())
        names = tuple(s["name"] for s in payload["suites"])
        if rc != 0 or not payload["passed"] or names != SWEEP_SUITES:
            return f"exit {rc}, suites {[(s['name'], s['passed']) for s in payload['suites']]}"
        if not all(s["passed"] and s["cases"] > 0 for s in payload["suites"]):
            return "a suite failed or ran no cases"
        return None

    def _orbit(self, factors, elems, image):
        zs = self.zs
        G = zs.make_group(factors)
        results = [str(zs.orbit_canonical(zs.Sequence.from_elements(G, [G.element(e) for e in seq])))
                   for seq in (elems, image)]
        if results[0] != results[1]:
            return f"orbit images disagree: {results}"
        canon = sorted(parse_terms(results[0]))
        if len(canon) != len(elems):
            return f"canonical form has length {len(canon)}"
        if canon > sorted(elems) or canon > sorted(image):
            return "canonical form is not the least image"
        return None

    def _match(self, n, k, elems, expected):
        zs = self.zs
        G = zs.make_group([n, n])
        S = zs.Sequence.from_elements(G, [G.element(e) for e in elems])
        got = zs.match_inverse_structure(S, n, k)
        return None if got == expected else f"returned {got}, expected {expected}"

    def _enumerate(self):
        zs = self.zs
        found = zs.enumerate_extremal(zs.make_group([3, 3]), zs.LengthSet.up_to(3), 4,
                                      up_to_automorphism=True)
        texts = tuple(str(S) for S in found.sequences)
        if not found.complete or texts != ENUM_C3X3_LEQ3_LEN4:
            return f"complete={found.complete}, found {texts}"
        for text in texts:
            problem = witness_error((3, 3), text, 5, (1, 2, 3))
            if problem:
                return problem
        return None

    def _lemma(self):
        zs = self.zs
        report = zs.lemma_3_6_property(zs.make_group([4, 4]))
        if not (report.passed and report.exhaustive and report.cases == LEMMA_C4X4_CASES):
            return (f"passed={report.passed} exhaustive={report.exhaustive} "
                    f"cases={report.cases}")
        return None

    def _verify(self, construction, params, length, min_zs):
        zs = self.zs
        if construction == "lowercnr":
            S = zs.build_lowercnr(zs.LowerCnrParams(*params))
        else:
            factors, k = params
            S = zs.build_lower_general(zs.LowerGeneralParams(zs.make_group(factors), k))
        report = zs.verify_construction(S, length, min_zs)
        return None if report.passed else f"length {report.actual_length}, min {report.actual_min}"
