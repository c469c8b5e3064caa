#!/usr/bin/env python3
"""Tabulate interval zero-sum invariants s_{<=k}(G) for a list of groups.

For each group and each k in the requested range, runs the pruned
exhaustive search and, when available, the bundled/closed-form value
table, and reports whether the two agree.

Examples:
    python3 scripts/invariant_table.py 3,3 3,3,3
    python3 scripts/invariant_table.py 2,2,2,2 --k-min 2 --k-max 4 --csv out.csv
    python3 scripts/invariant_table.py 5,5 --no-symmetry --node-budget 200000
"""

from __future__ import annotations

import argparse
import csv
import sys

from zerosum import SearchConfig, d_star, known_s_leq, make_group, s_leq

CSV_FIELDS = ("group", "k", "search", "known", "source", "agree")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "groups",
        nargs="+",
        help="groups as comma-separated invariant factors, e.g. 3,3,3",
    )
    ap.add_argument("--k-min", type=int, default=2, help="smallest k (default 2)")
    ap.add_argument(
        "--k-max",
        type=int,
        default=None,
        help="largest k (default: 1 + sum(n_i - 1) per group)",
    )
    ap.add_argument(
        "--no-symmetry",
        action="store_true",
        help="disable the flag trick (slower, same values; orderly generation "
        "and orbit-minimum first terms stay on)",
    )
    ap.add_argument(
        "--node-budget",
        type=int,
        default=SearchConfig.node_budget,
        help="search node budget per invariant",
    )
    ap.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="wall-clock budget per invariant, in seconds",
    )
    ap.add_argument("--witness", action="store_true", help="print extremal witnesses")
    ap.add_argument("--csv", metavar="PATH", help="also write rows as CSV")
    return ap.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        groups = [make_group([int(t) for t in spec.split(",")]) for spec in args.groups]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    cfg = SearchConfig(
        node_budget=args.node_budget,
        time_budget=args.time_budget,
        symmetry_reduction=not args.no_symmetry,
    )

    rows: list[dict[str, object]] = []
    header = f"{'group':>10} {'k':>3} {'search':>8} {'known':>8} {'source':>18} {'agree':>6}"
    print(header)
    print("-" * len(header))
    for G in groups:
        k_max = args.k_max if args.k_max is not None else d_star(G)
        for k in range(args.k_min, k_max + 1):
            res = s_leq(G, k, cfg)
            if res.infinite:
                searched = "inf"
            elif res.value is not None:
                searched = str(res.value)
            else:
                searched = f">={res.best_length + 1}?"
            kv = known_s_leq(G, k)
            known = str(kv.value) if kv else "-"
            source = kv.source if kv else "-"
            agree = "-"
            if kv and res.value is not None:
                agree = "yes" if res.value == kv.value else "NO"
            print(f"{G!s:>10} {k:>3} {searched:>8} {known:>8} {source:>18} {agree:>6}")
            if args.witness and res.witness is not None:
                print(f"{'':>10} witness: {res.witness}")
            rows.append(dict(zip(CSV_FIELDS, (str(G), k, searched, known, source, agree))))

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {len(rows)} rows to {args.csv}")

    disagreements = sum(r["agree"] == "NO" for r in rows)
    if disagreements:
        print(f"{disagreements} disagreement(s) between search and table", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
