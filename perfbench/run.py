#!/usr/bin/env python3
"""Benchmark of the zerosum package: one workload, one seed, checked answers.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` it times whole passes over the workload's inputs and
prints the end-to-end metrics; with ``--trace 1`` it wraps the package's
public functions (see tracer.py) and prints the per-layer metrics.  Either
way every answer is checked, and the last line of standard output is one
JSON object.  Details and the metric map are in perfbench/README.md.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    LADDER, PARTITIONED, QUERIES, SWEEP_SUITES, WORKERS, Checks, HarnessWorkload, SearchWorkload,
    cpu_seconds,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("ladder", "partitioned", "harness")
SETUP_PROBES = 5


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measure whole passes for about this long (at least one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="do only the set-up (one setup_s sample) and exit")
    return ap.parse_args(argv)


def calibrate() -> float:
    """Seconds for a fixed stdlib loop (median of 3): machine speed now."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        acc = 0
        for i in range(400_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(perf_counter() - t0)
    return statistics.median(times)


def load_package():
    src = ROOT / "src"
    needed = (src / "zerosum" / "__init__.py", ROOT / "scripts" / "conjecture_scan.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: {', '.join(missing)} not found; run from a zerosum checkout")
    sys.path.insert(0, str(src))
    import zerosum
    import zerosum.cli  # noqa: F401  (loads every module the tracer wraps)

    if Path(zerosum.__file__).resolve().parent != (src / "zerosum").resolve():
        sys.exit(f"perfbench: imported zerosum from {zerosum.__file__}, not from {src}")
    return zerosum


def make_workload(zs, name: str):
    if name == "ladder":
        return SearchWorkload(zs, LADDER, partitioned=False)
    if name == "partitioned":
        return SearchWorkload(zs, PARTITIONED, partitioned=True)
    return HarnessWorkload(zs, ROOT)


def timed_pass(workload, checks: Checks, tracer=None) -> dict:
    cpu0 = sum(cpu_seconds())
    t0 = perf_counter()
    records = workload.run_pass(checks, tracer)
    wall = perf_counter() - t0
    return {"wall_s": wall, "cpu_s": sum(cpu_seconds()) - cpu0, "records": records}


def measure(workload, checks: Checks, seconds: float, tracer=None) -> list[dict]:
    """Whole passes until the next one would end after ``seconds``."""
    passes = []
    t_begin = perf_counter()
    while True:
        if tracer:
            tracer.pass_id = len(passes)
        passes.append(timed_pass(workload, checks, tracer))
        longest = max(p["wall_s"] for p in passes)
        if perf_counter() - t_begin + longest > seconds:
            return passes


def setup_samples(args, checks: Checks) -> list[float]:
    """Wall seconds of fresh processes that only set up: interpreter start,
    imports, bundled table, group tables, inputs and their checks."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]

    def probe():
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        samples.append(perf_counter() - t0)
        return None if proc.returncode == 0 else f"exit {proc.returncode}: {proc.stderr[-500:]}"

    for _ in range(SETUP_PROBES):
        checks.run("setup probe", probe)
    return samples


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest reaped child (MB)."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


def tail_note(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    beyond = 10
    if n <= beyond:
        return f"n={n}; no percentile has {beyond} samples beyond it"
    q = (n - beyond) / n
    ordered = sorted(samples)
    return f"n={n}; p{100 * q:.0f}={ordered[n - beyond - 1]:.4f}"


# --- per-layer metrics from the trace -------------------------------------------


def query_metrics(passes: list[dict]) -> dict:
    out = {}
    for name in QUERIES:
        recs = [r for p in passes for r in p["records"] if r.get("query") == name]
        out[f"search.{name}.s"] = statistics.median(r["s"] for r in recs) if recs else 0.0
        out[f"search.{name}.nodes"] = recs[0]["nodes"] if recs else 0
    return out


def partition_metrics(passes: list[dict], serial: list[dict]) -> dict:
    keys = ("search.worker_cpu_s", "search.parent_wait_s", "search.parallel_efficiency",
            "search.partition_extra_nodes")
    if not serial:
        return dict.fromkeys(keys, 0.0)
    per_pass = [
        (sum(r["s"] for r in p["records"]),
         sum(r["cpu_children_s"] for r in p["records"]),
         sum(r["s"] - r["cpu_self_s"] for r in p["records"]),
         sum(r["nodes"] for r in p["records"]))
        for p in passes
    ]
    part_s = statistics.median(x[0] for x in per_pass)
    serial_s = sum(r["s"] for r in serial)
    return dict(zip(keys, (
        statistics.median(x[1] for x in per_pass),
        statistics.median(x[2] for x in per_pass),
        serial_s / (WORKERS * part_s),
        per_pass[0][3] - sum(r["nodes"] for r in serial),
    )))


def a_i_evals(calls) -> int:
    """a_i evaluations made by the criteria calls, read from their arguments
    and results: a scan stops at the first nonzero a_i, and the guarantee
    tabulates its whole window.  (A counting wrapper on a_i itself would
    cost more than a_i.)"""
    total = 0
    for fn, args, kwargs, result in calls:
        if fn.__name__ == "zerosub_guarantee":
            total += len(result.a_values)
        elif result is not None:
            total += result
        else:
            bound = inspect.signature(fn).bind(*args, **kwargs).arguments
            total += bound["limit"] if "limit" in bound else max(2 * bound["k"] - bound["D"], 0)
    return total


def layer_metrics(tracer: Tracer, workload, passes: list[dict], pass_ids, serial) -> dict:
    P = set(pass_ids)
    n = len(P)
    t = tracer
    m = {}
    searches = t.returned("search.s_L", P)
    nodes = sum(r.stats.nodes for r in searches)
    pruned = sum(r.stats.pruned for r in searches)
    s_l_seconds = t.total_seconds("search.s_L", P)
    m["search.busy_s"] = t.self_seconds("search.", P) / n
    m["search.calls"] = len(searches) / n
    m["search.nodes"] = nodes / n
    m["search.pruned"] = pruned / n
    m["search.admit_ratio"] = nodes / (nodes + pruned) if nodes + pruned else 0.0
    m["search.nodes_per_s"] = nodes / s_l_seconds if s_l_seconds else 0.0
    m["search.us_per_call"] = 1e6 * s_l_seconds / len(searches) if searches else 0.0
    m["search.enum_s"] = t.self_seconds("search.enum", P) / n
    m["search.enum_found"] = sum(len(r.sequences) for r in t.returned("search.enum", P)) / n
    m.update(partition_metrics(passes, serial))
    m.update(query_metrics(passes))

    m["groups.table_s"] = workload.table_s
    auts = t.returned("groups.aut", P)
    full = [a for a in auts if a[1]]
    m["groups.aut_s"] = t.self_seconds("groups.aut", P) / n
    m["groups.aut_count"] = sum(a[0] for a in auts) / n
    m["groups.aut_yield"] = sum(a[0] for a in full) / sum(a[2] for a in full) if full else 0.0

    for what in ("feasibility", "count_table", "orbit"):
        m[f"sequences.{what}_s"] = t.self_seconds(f"sequences.{what}", P) / n
        m[f"sequences.{what}_calls"] = t.span_count(f"sequences.{what}", P) / n

    m["criteria.scan_s"] = t.self_seconds("criteria.scan", P) / n
    m["criteria.predict_s"] = t.self_seconds("criteria.predict", P) / n
    m["criteria.a_i_evals"] = a_i_evals(t.calls("criteria.scan", P)) / n

    for suite in SWEEP_SUITES:
        m[f"sweeps.{suite}.s"] = t.total_seconds(f"sweeps.{suite}", P) / n
    m["sweeps.cases"] = sum(o.cases for s in SWEEP_SUITES
                            for o in t.returned(f"sweeps.{s}", P)) / n

    m["theorems.self_s"] = t.self_seconds("theorems.", P) / n
    m["theorems.rows"] = sum(len(r.rows) for r in t.returned("theorems.conjecture", P)) / n
    m["constructions.match_s"] = t.self_seconds("constructions.match", P) / n
    m["constructions.verify_s"] = t.self_seconds("constructions.verify", P) / n
    m["known.load_s"] = t.total_seconds("known.load")
    m["cli.self_s"] = t.self_seconds("cli.", P) / n
    return m


# --- main -----------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        checks = Checks()
        make_workload(load_package(), args.workload).setup(args.seed, checks)
        for failure in checks.failures:
            print(failure, file=sys.stderr)
        return 1 if checks.failures else 0

    calib = [calibrate()]
    checks = Checks()
    zs = load_package()
    workload = make_workload(zs, args.workload)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}

    if not args.trace:
        workload.setup(args.seed, checks)
        report["setup_in_process_s"] = perf_counter() - START
        passes = measure(workload, checks, args.seconds)
        rss = peak_rss_mb()
        setups = setup_samples(args, checks) or [report["setup_in_process_s"]]
        walls = [p["wall_s"] for p in passes]
        cpus = [p["cpu_s"] for p in passes]
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        report.update(passes=passes, setup_samples_s=setups)
        notes = [f"wall_s median {metrics['wall_s'][0]:.4f} s ({tail_note(walls)})",
                 f"cpu_s median {metrics['cpu_s'][0]:.4f} s ({tail_note(cpus)})",
                 f"setup_s median {metrics['setup_s'][0]:.4f} s ({tail_note(setups)})"]
    else:
        tracer = Tracer()
        tracer.install(workload.modules)
        tracer.pass_id = "setup"
        workload.setup(args.seed, checks)
        tracer.uninstall()
        untraced = timed_pass(workload, checks)
        tracer.install(workload.modules)
        passes = measure(workload, checks, args.seconds, tracer)
        tracer.uninstall()
        serial = []
        if args.workload == "partitioned":
            serial = workload.serial_reference(
                checks, untraced["records"] + [r for p in passes for r in p["records"]])
        traced_wall = statistics.median(p["wall_s"] for p in passes)
        values = layer_metrics(tracer, workload, passes, range(len(passes)), serial)
        calib.append(calibrate())
        values["machine.calib_s"] = statistics.mean(calib)
        values["trace.overhead_frac"] = traced_wall / untraced["wall_s"] - 1.0
        metrics = {k: (v, unit_of(k)) for k, v in values.items()}
        report.update(untraced_pass=untraced, passes=passes, serial_reference=serial,
                      spans=tracer.dump())
        notes = [f"{len(passes)} traced pass(es); untraced pass {untraced['wall_s']:.4f} s, "
                 f"traced median {traced_wall:.4f} s"]

    notes += workload.count_notes([r for p in passes for r in p["records"]])
    if len(calib) == 1:
        calib.append(calibrate())
    report.update(calib_s=calib, attempted=checks.attempted, failures=checks.failures,
                  metrics={k: v for k, (v, _) in metrics.items()})
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(report, indent=1, default=str))

    failed = len(checks.failures)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} pass(es), "
          f"machine.calib_s {calib[0]:.4f} -> {calib[-1]:.4f} s, "
          f"failed_frac {failed}/{checks.attempted}; results in {out_path.relative_to(ROOT)}")
    for note in notes:
        print("  " + note)
    for failure in checks.failures:
        print("FAILED " + failure)
    print(json.dumps({
        "correct": not failed,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failed else 0


def unit_of(name: str) -> str:
    if name.endswith("nodes_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(("_ratio", "_yield", "_efficiency", "_frac")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
