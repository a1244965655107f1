#!/usr/bin/env python3
"""Builds and compares rows of the committed perf trajectory (BENCH_maltbench.json).

A row is one commit on one workload: the end-to-end metrics of N maltbench
runs (--trace 0), each run's seed, plus one --trace 1 per-layer record.

    # Make a row from saved maltbench stdout files (one file per run; the
    # last two lines of each are the run record and the result object):
    python3 tools/bench_compare.py row --label change --seconds 30 \\
        --runs out/change-*.txt --trace-run out/change-trace.txt > row.json

    # Diff two rows of every workload against BENCHMARK.json's bounds, and
    # test a named claim with the pairs rule:
    python3 tools/bench_compare.py diff BENCH_maltbench.json \\
        --base 6932a5b --head lockfree-data-plane --claim mf_sparse_asp:examples_per_s

diff pairs the i-th run of the base row with the i-th run of the head row
(the same seed, run back to back in alternating order). For every workload
and end-to-end metric it prints both medians and quartiles and a verdict:
  better / same   the head's median is not worse than the base's by more
                  than the metric's bound
  worse           it is worse by more than the bound
  unresolved      either side's quartile spread, relative to its median,
                  exceeds the bound, and not every head run beats every
                  base run
A claim holds when the head wins at least 9 of 10 pairs (ties count for
neither side) and the medians differ by more than the base's interquartile
range. Exit status is 1 when a metric is worse or the claim fails.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summary(values):
    q1, med, q3 = quartiles(values)
    return {"runs": values, "median": med, "q1": q1, "q3": q3}


def read_run(path):
    """(run record, result object) from one saved maltbench stdout."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    record = json.loads(lines[-2].split("run record: ", 1)[1])
    return record, json.loads(lines[-1])


def make_row(args):
    records, results = zip(*(read_run(p) for p in args.runs))
    first = records[0]
    row = {
        "label": args.label,
        "workload": first["workload"],
        "git_sha": args.rev or first["git_sha"],
        "source_sha": first["source_sha"],
        "seconds": args.seconds,
        "seeds": [r["seed"] for r in records],
        "pairs": len(records),
        "nproc": first["nproc"],
        "build_type": first["build_type"],
        "compiler": first["compiler"],
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "end_to_end": {name: summary([r["metrics"][name]["value"] for r in results])
                       for name in results[0]["metrics"]},
    }
    if args.trace_run:
        trace_record, trace_result = read_run(args.trace_run)
        row["per_layer"] = {"seed": trace_record["seed"],
                            "metrics": {k: v["value"]
                                        for k, v in trace_result["metrics"].items()}}
    json.dump(row, sys.stdout, indent=1)
    print()
    return 0


def worse_by(base, head, better):
    """Relative amount by which head is worse than base (negative: better)."""
    if base == 0:
        return 0.0 if head == base else float("inf")
    change = (head - base) / abs(base)
    return -change if better == "higher" else change


def beats(head, base, better):
    return head > base if better == "higher" else head < base


def diff_rows(base, head, spec, claim_metric):
    failures = 0
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print("%s: %s (%s) -> %s (%s), %d/%d pairs" % (
        base["workload"], base["label"], (base["git_sha"] or "?")[:12], head["label"],
        (head["git_sha"] or "?")[:12], base["pairs"], head["pairs"]))
    print("  failed/attempted: %d/%d -> %d/%d" % (
        base["failed"], base["attempted"], head["failed"], head["attempted"]))
    if head["failed"] * base["attempted"] > base["failed"] * head["attempted"]:
        print("  verdict: larger failed share")
        failures += 1
    for name, m in bounds.items():
        b, h = base["end_to_end"].get(name), head["end_to_end"].get(name)
        if b is None or h is None:
            continue
        bound, better = m["bound"], m["better"]
        delta = worse_by(b["median"], h["median"], better)
        spread = max((s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0
                     for s in (b, h))
        separated = all(beats(x, y, better) for x in h["runs"] for y in b["runs"])
        if delta > bound:
            verdict = "worse"
            failures += 1
        elif spread > bound and not separated:
            verdict = "unresolved"
        else:
            verdict = "better" if delta < 0 else "same"
        print("  %-15s base %.4g [%.4g, %.4g]  head %.4g [%.4g, %.4g]  %+.1f%%  %s" % (
            name, b["median"], b["q1"], b["q3"], h["median"], h["q1"], h["q3"],
            -100.0 * delta, verdict))
        if name == claim_metric:
            pairs = list(zip(b["runs"], h["runs"]))
            wins = sum(beats(y, x, better) for x, y in pairs)
            gap = abs(h["median"] - b["median"])
            iqr = b["q3"] - b["q1"]
            held = wins * 10 >= 9 * len(pairs) and beats(h["median"], b["median"], better) \
                and gap > iqr
            print("  claim %s: head wins %d/%d pairs, median gap %.4g vs base IQR %.4g: %s" % (
                name, wins, len(pairs), gap, iqr, "holds" if held else "NOT MET"))
            failures += 0 if held else 1
    return failures


def find_row(rows, label, workload):
    for row in rows:
        if row["workload"] == workload and (row["label"] == label or
                                            (row["git_sha"] or "").startswith(label)):
            return row
    return None


def diff(args):
    with open(args.bench) as f:
        rows = json.load(f)["rows"]
    with open(args.spec) as f:
        spec = json.load(f)
    claim_workload, _, claim_metric = (args.claim or "").partition(":")
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        base, head = find_row(rows, args.base, workload), find_row(rows, args.head, workload)
        if base is None or head is None:
            print("%s: no %s row" % (workload, args.base if base is None else args.head))
            continue
        failures += diff_rows(base, head, spec,
                              claim_metric if workload == claim_workload else None)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    row = sub.add_parser("row", help="build one row from saved maltbench outputs")
    row.add_argument("--label", required=True)
    row.add_argument("--rev", help="git sha to record instead of the runs' (uncommitted trees)")
    row.add_argument("--seconds", type=float, required=True)
    row.add_argument("--runs", nargs="+", required=True, help="--trace 0 outputs, in pair order")
    row.add_argument("--trace-run", help="one --trace 1 output")
    d = sub.add_parser("diff", help="compare two rows per workload")
    d.add_argument("bench", help="BENCH_maltbench.json")
    d.add_argument("--base", required=True, help="row label or git sha prefix")
    d.add_argument("--head", required=True, help="row label or git sha prefix")
    d.add_argument("--claim", help="workload:metric held to the pairs rule")
    d.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    return make_row(args) if args.cmd == "row" else diff(args)


if __name__ == "__main__":
    sys.exit(main())
