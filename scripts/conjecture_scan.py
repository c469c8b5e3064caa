#!/usr/bin/env python3
"""Scan small groups for the threshold conjecture k_G = ceil((D(G)+1)/2).

Enumerates finite abelian groups by invariant-factor chains up to a
given order, runs the conjecture harness on each, and reports the
observed threshold k_G (the least k such that s_{<=m}(G) <= 2D(G) - m,
that is s_{<=D-j}(G) <= D+j, for every m in [k, D-1]) against the
conjectured value (D+1)/2. The exact equality can only
hold when D is odd and the exponent is small enough, so "no" rows are
data points, not failures. Groups whose Davenport constant is not
exactly known at the requested scale are listed as skipped.

Examples:
    python3 scripts/conjecture_scan.py --max-order 27
    python3 scripts/conjecture_scan.py --max-order 64 --source bundled
    python3 scripts/conjecture_scan.py --max-order 32 --min-rank 3 --csv scan.csv
"""

from __future__ import annotations

import argparse
import csv
from typing import Iterator

from zerosum import InvalidInputError, SearchConfig, conjecture_harness, make_group

CSV_FIELDS = ("group", "order", "D", "D_source", "k_G", "target", "holds", "monotone")


def factor_chains(max_order: int, min_rank: int) -> Iterator[tuple[int, ...]]:
    """Yield invariant-factor chains (n_1 | n_2 | ... | n_r) with product <= max_order."""

    def extend(chain: tuple[int, ...], product: int) -> Iterator[tuple[int, ...]]:
        if len(chain) >= min_rank:
            yield chain
        last = chain[-1]
        for m in range(last, max_order + 1, last):
            if product * m > max_order:
                break
            yield from extend(chain + (m,), product * m)

    for n in range(2, max_order + 1):
        yield from extend((n,), n)


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-order", type=int, default=32, help="largest group order")
    ap.add_argument("--min-rank", type=int, default=2, help="smallest rank to include")
    ap.add_argument(
        "--source",
        choices=("computed", "bundled", "auto"),
        default="auto",
        help="row values by search, by bundled tables, or bundled-then-computed",
    )
    ap.add_argument(
        "--no-symmetry",
        action="store_true",
        help="disable the flag trick in computed rows (orderly generation, "
        "orbit-minimum first terms, and 0 first when exp(G) divides every member "
        "of L stay on)",
    )
    ap.add_argument(
        "--time-budget",
        type=float,
        default=60.0,
        help="wall-clock budget per row: each computed row's search gets its own, in seconds",
    )
    ap.add_argument("--csv", metavar="PATH", help="also write rows as CSV")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    cfg = SearchConfig(
        time_budget=args.time_budget,
        symmetry_reduction=not args.no_symmetry,
    )
    sources = ("bundled", "computed") if args.source == "auto" else (args.source,)

    rows: list[dict[str, object]] = []
    header = (
        f"{'group':>12} {'|G|':>5} {'D':>3} {'D src':>14} "
        f"{'k_G':>4} {'(D+1)/2':>8} {'holds':>6} {'monotone':>9}"
    )
    print(header)
    print("-" * len(header))
    skipped: list[tuple[str, str]] = []
    matches = 0
    for chain in sorted(factor_chains(args.max_order, args.min_rank), key=lambda c: (len(c), c)):
        G = make_group(chain)
        report = None
        reason = ""
        for source in sources:
            try:
                report = conjecture_harness(G, source=source, cfg=cfg)
                break
            except InvalidInputError as exc:
                reason = str(exc)
        if report is None:
            skipped.append((str(G), reason))
            continue
        target = f"{(report.d_value + 1) / 2:g}"
        k_g = report.k_g if report.k_g is not None else "?"
        holds = {True: "yes", False: "no", None: "?"}[report.conjecture_k_half]
        if report.conjecture_k_half is True:
            matches += 1
        mono = "yes" if report.monotone_consistent else "NO"
        print(
            f"{G!s:>12} {G.order:>5} {report.d_value:>3} {report.d_source:>14} "
            f"{k_g!s:>4} {target:>8} {holds:>6} {mono:>9}"
        )
        rows.append(dict(zip(CSV_FIELDS, (
            str(G), G.order, report.d_value, report.d_source, report.k_g, target,
            report.conjecture_k_half, report.monotone_consistent,
        ))))

    if skipped:
        print(f"\nskipped {len(skipped)} group(s):")
        for name, reason in skipped:
            print(f"  {name}: {reason}")

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}")

    print(f"\n{matches} of {len(rows)} group(s) match k_G = (D+1)/2 exactly")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
