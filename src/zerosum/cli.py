"""Command-line front end.

Subcommands: ``invariant`` (search an invariant value), ``construct`` (emit
an extremal construction), ``verify`` (check a sequence's length and
shortest zero-sum), ``criteria`` (run the congruence criterion on a
sequence), ``theorems`` (evaluate theorem hypotheses for a group),
``conjectures`` (the k_G harness) and ``sweep`` (the cross-validation
sweeps).  Exit codes: 0 complete, 1 usage or input error, 2 search budget
exhausted, 3 internal failure (including sweep violations).

Each subcommand parses its flags, calls the library and formats what it
returns.  The budget flags go straight into ``SearchConfig``, which checks
them and whose defaults they share; ``s_L`` decides how ``--workers`` splits
the tree, ``thm_1_10_claims`` which Theorem 1.10 cases a group matches, and
the result dataclasses which fields a row has.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import traceback
from dataclasses import asdict, fields
from pathlib import Path

from .constructions import (
    LowerCnrParams,
    LowerGeneralParams,
    build_inv2,
    build_lower_general,
    build_lowercnr,
    verify_construction,
)
from .criteria import zerosub_guarantee
from .errors import ResourceLimitError, ZeroSumError
from .groups import GroupSpec, parse_group
from .search import SearchConfig, SearchResult, davenport, eta, s_egz, s_L, s_leq
from .sequences import LengthSet, Sequence
from .theorems import (
    ConjectureRow,
    TheoremClaim,
    check_thm_1_8,
    check_thm_1_9,
    conjecture_harness,
    davenport_value,
    thm_1_10_claims,
)
from .sweeps import run_all_sweeps


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _search_config(args) -> SearchConfig:
    return SearchConfig(
        node_budget=args.budget_nodes,
        time_budget=args.budget_seconds,
        symmetry_reduction=args.symmetry,
        parallel_depth=args.parallel_depth,
        workers=args.workers,
    )


def _add_budget_flags(sub) -> None:
    sub.add_argument("--budget-nodes", type=int, default=SearchConfig.node_budget, metavar="N")
    sub.add_argument("--budget-seconds", type=float, default=None, metavar="S")
    sub.add_argument("--workers", type=int, default=1, metavar="W")
    sub.add_argument("--parallel-depth", type=int, default=0, metavar="P")
    sub.add_argument("--symmetry", action="store_true",
                     help="use the flag trick on prime-exponent homocyclic groups (same "
                          "value, possibly another witness); orderly generation, first "
                          "terms restricted to orbit minima, and 0 as the first term "
                          "when exp(G) divides every member of L keep the witness and "
                          "are always on")


def _add_output_flags(sub, formats=("json", "text")) -> None:
    sub.add_argument("--format", choices=formats, default="json")
    sub.add_argument("--out", default=None, metavar="PATH")


def _read_sequence(G: GroupSpec, args) -> Sequence:
    if args.seq is not None:
        return Sequence.parse(G, args.seq)
    text = Path(args.infile).read_text().strip()
    return Sequence.parse(G, text)


def _invariant_payload(result: SearchResult) -> dict:
    return {
        "group": str(result.group),
        "L": result.L.label(),
        "value": result.value if result.value is not None else result.value_label(),
        "witness": result.witness.format() if result.witness is not None else None,
        "best_length": result.best_length,
        "nodes": result.stats.nodes,
        "symmetry": result.stats.symmetry,
        "seconds": result.stats.seconds,
        "complete": result.complete,
    }


def cmd_invariant(args) -> int:
    G = parse_group(args.group)
    picked = [name for name in ("leq", "exactly", "davenport", "eta", "egz", "L") if getattr(args, name) is not None and getattr(args, name) is not False]
    if len(picked) != 1:
        args.parser.error("choose exactly one of --leq/--exactly/--davenport/--eta/--egz/--L")
    cfg = _search_config(args)
    if args.leq is not None:
        result = s_leq(G, args.leq, cfg)
    elif args.exactly is not None:
        result = s_L(G, LengthSet.exactly(args.exactly), cfg)
    elif args.davenport:
        result = davenport(G, cfg)
    elif args.eta:
        result = eta(G, cfg)
    elif args.egz:
        result = s_egz(G, cfg)
    else:
        result = s_L(G, LengthSet.of(int(x) for x in args.L.split(",")), cfg)
    payload = _invariant_payload(result)
    if args.format == "text":
        label = result.value_label()
        if label == "unknown" and result.best_length is not None:
            label += f" (>= {result.best_length + 1})"
        lines = [f"s_{result.L.label()}({result.group}) = {label}"]
        if payload["witness"]:
            lines.append(f"witness: {payload['witness']}")
        lines.append(f"nodes: {payload['nodes']}  symmetry: {payload['symmetry']}  "
                     f"seconds: {payload['seconds']:.3f}  complete: {payload['complete']}")
        _emit("\n".join(lines), args.out)
    else:
        _emit(json.dumps(payload, indent=2), args.out)
    return 0 if result.complete else 2


def cmd_construct(args) -> int:
    if args.family == "lowercnr":
        S = build_lowercnr(LowerCnrParams(n=args.n, r=args.r, k=args.k))
    elif args.family == "general":
        S = build_lower_general(LowerGeneralParams(group=parse_group(args.group), k=args.k))
    else:  # inv2
        xs = None if args.xs is None else tuple(int(v) for v in args.xs.split(","))
        S = build_inv2(args.n, args.k, xs=xs, x=args.x)
    _emit(S.format(), args.out)
    return 0


def cmd_verify(args) -> int:
    G = parse_group(args.group)
    S = _read_sequence(G, args)
    report = verify_construction(S, expected_length=args.len, min_zs=args.min_zs)
    payload = {"group": str(G), **{f.name: getattr(report, f.name) for f in fields(report)},
               "sequence": S.format(), "passed": report.passed}
    if args.format == "text":
        verdict = "pass" if report.passed else "FAIL"
        _emit(
            f"{verdict}: length {report.actual_length} (expected {report.expected_length}), "
            f"shortest zero-sum {report.actual_min} (required >= {report.min_zs} or none)",
            args.out,
        )
    else:
        _emit(json.dumps(payload, indent=2), args.out)
    return 0


def cmd_criteria(args) -> int:
    G = parse_group(args.group)
    S = _read_sequence(G, args)
    p = G.p_group_prime()
    if p is None:
        args.parser.error(f"{G} is not a p-group")
    if args.D is not None:
        D = args.D
    else:
        D, _, conditional = davenport_value(G)
        if conditional:
            args.parser.error(f"D({G}) unknown; pass --D")
    report = zerosub_guarantee(S, args.k, p, D)
    payload = {
        "p": report.p,
        "T_len": report.T_len,
        "k": report.k,
        "D": report.D,
        "a": [[i, r] for i, r in report.a_values],
        "i0": report.i0,
        "guarantees_short": report.guarantees_short,
        "flags": {"l4_7": report.l4_7, "c4_8": report.c4_8, "l4_9": report.l4_9},
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


def _claim_payload(claim: TheoremClaim) -> dict:
    return {
        "theorem": claim.theorem,
        "group": str(claim.group),
        "k": claim.k,
        "hypotheses": {name: value for name, value in claim.hypotheses},
        "applies": claim.applies,
        "claimed_bound": claim.claimed_bound,
        "D": claim.d_value,
        "D_source": claim.d_source,
        "conditional_on_d_star": claim.conditional_on_d_star,
        "equality_expected": claim.equality_expected,
        "verifiable_at_desk": claim.verifiable_at_desk,
    }


def cmd_theorems(args) -> int:
    G = parse_group(args.group)
    cfg = _search_config(args)
    claims = [check_thm_1_8(G, cfg)]
    if args.k is not None:
        claims.append(check_thm_1_9(G, args.k))
    claims.extend(thm_1_10_claims(G))
    payload = [_claim_payload(c) for c in claims]
    if args.format == "text":
        lines = []
        for c in claims:
            status = f"claims s_leq({c.k}) <= {c.claimed_bound}" if c.applies else "does not apply"
            lines.append(f"{c.theorem} on {c.group}: {status}")
            for name, value in c.hypotheses:
                lines.append(f"  [{'x' if value else ' '}] {name}")
        _emit("\n".join(lines), args.out)
    else:
        _emit(json.dumps(payload, indent=2), args.out)
    return 0


def cmd_conjectures(args) -> int:
    G = parse_group(args.group)
    cfg = _search_config(args)
    report = conjecture_harness(G, source=args.source, cfg=cfg)
    rows = [asdict(r) for r in report.rows]
    payload = {
        "group": str(G),
        "source": report.source,
        "D": {"value": report.d_value, "source": report.d_source},
        "rows": rows,
        "k_G": report.k_g if report.k_g is not None else "unknown",
        "conjecture_k_half": report.conjecture_k_half,
        "monotone_consistent": report.monotone_consistent,
        "s_kexp": [asdict(r) for r in report.kexp_rows],
    }
    if args.format == "csv":
        _emit(_csv_text([f.name for f in fields(ConjectureRow)], [r.values() for r in rows]),
              args.out)
    elif args.format == "text":
        lines = [f"{G}: D = {report.d_value} ({report.d_source}), source = {report.source}"]
        for r in report.rows:
            mark = {True: "holds", False: "FAILS", None: "unknown"}[r.holds]
            val = f">={r.value}" if r.is_lower_bound else str(r.value)
            lines.append(f"  s_leq({r.m}) = {val} vs D+{r.j} = {r.bound}: {mark} [{r.source}]")
        half = report.conjecture_k_half
        lines.append(f"k_G = {report.k_g if report.k_g is not None else 'unknown'}"
                     f" (conjectured (D+1)/2 = {(report.d_value + 1) / 2:g}):"
                     f" {half if half is not None else 'unknown'}")
        for r in report.kexp_rows:
            lines.append(f"  s_{{{r.k}*exp}} = {r.value} {r.relation} {r.threshold} "
                         f"({r.region}, consistent={r.consistent}) [{r.source}]")
        _emit("\n".join(lines), args.out)
    else:
        _emit(json.dumps(payload, indent=2), args.out)
    return 2 if any(r.is_lower_bound for r in report.rows) else 0


def cmd_sweep(args) -> int:
    outcomes = run_all_sweeps(
        seed=args.seed,
        max_T=args.max_T,
        row_count=args.row_count,
        congruence_samples=args.congruence_samples,
        soundness_samples=args.soundness_samples,
        ps=tuple(int(x) for x in args.p.split(",")),
    )
    all_passed = all(o.passed for o in outcomes)
    if args.format == "csv":
        text = _csv_text(
            ("suite", "cases", "passed", "violations"),
            [(o.name, o.cases, o.passed, " | ".join(o.violations)) for o in outcomes],
        )
        _emit(text, args.out)
    elif args.format == "text":
        lines = [
            f"{o.name}: cases={o.cases} {'pass' if o.passed else 'FAIL'}"
            + ("".join(f"\n  {v}" for v in o.violations))
            for o in outcomes
        ]
        lines.append("all passed" if all_passed else "FAILURES PRESENT")
        _emit("\n".join(lines), args.out)
    else:
        payload = {
            "seed": args.seed,
            "suites": [
                {"name": o.name, "cases": o.cases, "passed": o.passed, "violations": list(o.violations)}
                for o in outcomes
            ],
            "passed": all_passed,
        }
        _emit(json.dumps(payload, indent=2), args.out)
    return 0 if all_passed else 3


def build_parser() -> _Parser:
    parser = _Parser(prog="zerosum", description=__doc__.split("\n\n")[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p_inv = subs.add_parser("invariant", help="search a zero-sum invariant")
    p_inv.add_argument("group")
    p_inv.add_argument("--leq", type=int, default=None, metavar="K")
    p_inv.add_argument("--exactly", type=int, default=None, metavar="M")
    p_inv.add_argument("--davenport", action="store_true", default=False)
    p_inv.add_argument("--eta", action="store_true", default=False)
    p_inv.add_argument("--egz", action="store_true", default=False)
    p_inv.add_argument("--L", default=None, metavar="a,b,c")
    _add_budget_flags(p_inv)
    _add_output_flags(p_inv)
    p_inv.set_defaults(func=cmd_invariant, parser=p_inv)

    p_con = subs.add_parser("construct", help="emit an extremal construction")
    con_subs = p_con.add_subparsers(dest="family", required=True)
    c1 = con_subs.add_parser("lowercnr")
    c1.add_argument("n", type=int)
    c1.add_argument("r", type=int)
    c1.add_argument("k", type=int)
    c2 = con_subs.add_parser("general")
    c2.add_argument("group")
    c2.add_argument("k", type=int)
    c3 = con_subs.add_parser("inv2")
    c3.add_argument("n", type=int)
    c3.add_argument("k", type=int)
    c3.add_argument("--x", type=int, default=None)
    c3.add_argument("--xs", default=None, metavar="a,b,c")
    for c in (c1, c2, c3):
        c.add_argument("--out", default=None, metavar="PATH")
        c.set_defaults(func=cmd_construct, parser=c)

    p_ver = subs.add_parser("verify", help="verify a sequence's length and shortest zero-sum")
    p_ver.add_argument("group")
    p_ver.add_argument("--len", type=int, required=True)
    p_ver.add_argument("--min-zs", type=int, required=True, dest="min_zs")
    seq_group = p_ver.add_mutually_exclusive_group(required=True)
    seq_group.add_argument("--seq", default=None)
    seq_group.add_argument("--in", dest="infile", default=None, metavar="PATH")
    _add_output_flags(p_ver)
    p_ver.set_defaults(func=cmd_verify, parser=p_ver)

    p_cri = subs.add_parser("criteria", help="run the congruence criterion on a zero-sum sequence")
    p_cri.add_argument("group")
    p_cri.add_argument("--k", type=int, required=True)
    p_cri.add_argument("--D", type=int, default=None)
    seq_group = p_cri.add_mutually_exclusive_group(required=True)
    seq_group.add_argument("--seq", default=None)
    seq_group.add_argument("--in", dest="infile", default=None, metavar="PATH")
    _add_output_flags(p_cri, formats=("json",))
    p_cri.set_defaults(func=cmd_criteria, parser=p_cri)

    p_thm = subs.add_parser("theorems", help="evaluate theorem hypotheses for a group")
    p_thm.add_argument("group")
    p_thm.add_argument("--k", type=int, default=None)
    _add_budget_flags(p_thm)
    _add_output_flags(p_thm)
    p_thm.set_defaults(func=cmd_theorems, parser=p_thm)

    p_conj = subs.add_parser("conjectures", help="run the k_G conjecture harness")
    p_conj.add_argument("group")
    p_conj.add_argument("--source", choices=("computed", "bundled"), default="computed")
    _add_budget_flags(p_conj)
    _add_output_flags(p_conj, formats=("json", "csv", "text"))
    p_conj.set_defaults(func=cmd_conjectures, parser=p_conj)

    p_sw = subs.add_parser("sweep", help="run the cross-validation sweeps")
    p_sw.add_argument("--p", default="3,5,7", metavar="3,5,7")
    p_sw.add_argument("--max-T", type=int, default=400, dest="max_T", metavar="N")
    p_sw.add_argument("--seed", type=int, default=0, metavar="X")
    p_sw.add_argument("--row-count", type=int, default=200, dest="row_count", metavar="N")
    p_sw.add_argument("--congruence-samples", type=int, default=500, dest="congruence_samples", metavar="N")
    p_sw.add_argument("--soundness-samples", type=int, default=500, dest="soundness_samples", metavar="N")
    _add_output_flags(p_sw, formats=("json", "csv", "text"))
    p_sw.set_defaults(func=cmd_sweep, parser=p_sw)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    except SystemExit as exc:
        return 0 if exc.code is None else int(exc.code)
    except ResourceLimitError as exc:
        sys.stderr.write(f"budget exhausted: {exc}\n")
        return 2
    except (ZeroSumError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
