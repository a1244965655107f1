#!/usr/bin/env python3
"""Render malt_run's observability artifacts as human-readable tables.

Inputs (any subset; at least one):
  --trace FILE       Chrome trace_event JSON written by --trace_out
  --stream FILE      NDJSON metrics stream written by --metrics_stream (metric
                     samples interleaved with the HealthMonitor's per-epoch
                     {"type":"critical_path",...} records)
  --metrics FILE     metrics report JSON written by --metrics_out
  --postmortem FILE  NDJSON postmortem bundle written by --postmortem_out

Sections, each rendered when its input is given:
  * per-rank phase breakdown (--trace): compute/scatter/gather/barrier spans
    from B/E pairs — the paper's Fig. 8 view
  * flow summary (--trace): how many update flows started ('s'), were
    applied at the receiver ('t'), and were consumed by a gather-fold ('f'),
    and how many ids form complete s->t->f triples
  * stream timeline (--stream): one row per sample with the busiest counters
  * per-epoch critical path (--stream): which rank bounded each epoch's wall
    time, its compute/scatter/gather/wait split, and who it waited on
  * straggler summary (--stream): per rank, how many epochs it was critical
    and how many it was flagged a straggler
  * per-edge communication (--stream and/or --metrics): bytes/msgs/delivery
    latency/staleness per (src->dst) edge from the comm.edge.* metrics; the
    metrics report wins when both are given
  * rank watermarks (--metrics): last epoch, epoch lag, wait fraction, wall
    z-score, dead/straggler flags from the health.rank.* gauges
  * postmortem bundle (--postmortem): one row per dump record (reason, time,
    sections), plus the watermarks of the last dump that carried them

Examples:
  malt_run --app=svm --ranks=8 --transport=shmem --trace_out=tr.json \\
           --metrics_interval_ms=50 --metrics_stream=st.ndjson
  python3 tools/report.py --trace tr.json --stream st.ndjson

  malt_run --app=svm --ranks=8 --transport=shmem --slow_rank=3 \\
           --metrics_interval_ms=50 --metrics_stream=st.ndjson \\
           --metrics_out=m.json --postmortem_out=pm.ndjson
  python3 tools/report.py --stream st.ndjson --metrics m.json \\
           --postmortem pm.ndjson
"""

import argparse
import collections
import json
import re
import sys

EDGE_RE = re.compile(r"^comm\.edge\.(\d+)-(\d+)\.([a-z_]+)$")
HEALTH_RE = re.compile(r"^health\.rank\.(\d+)\.([a-z_]+)$")
PHASES = ("compute", "scatter", "gather", "barrier")
WATERMARK_COLS = ("epoch", "epoch_lag", "wait_frac", "wall_z", "waiting_on",
                  "blame_frac", "straggler_epochs", "dead")


def fmt_ns(ns):
    if ns >= 1e9:
        return "%.3fs" % (ns / 1e9)
    if ns >= 1e6:
        return "%.3fms" % (ns / 1e6)
    if ns >= 1e3:
        return "%.1fus" % (ns / 1e3)
    return "%dns" % int(ns)


def table(headers, rows):
    rows = [[str(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    out = [line, "-" * len(line)]
    for r in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(out)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def load_ndjson(path):
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def maybe_json(value):
    """Postmortem sections hold either a JSON object or its serialization."""
    return json.loads(value) if isinstance(value, str) else value


# --- trace ---------------------------------------------------------------


def report_phases(events):
    # ts in the export is microseconds; spans come from matched B/E pairs.
    spans = collections.defaultdict(float)  # (tid, name) -> total us
    open_at = {}
    for e in events:
        key = (e.get("tid"), e.get("name"))
        if e.get("ph") == "B" and e.get("name") in PHASES:
            open_at[key] = e["ts"]
        elif e.get("ph") == "E" and key in open_at:
            spans[key] += e["ts"] - open_at.pop(key)
    if not spans:
        return
    rows = []
    for tid in sorted({tid for tid, _ in spans}):
        total = sum(spans.get((tid, p), 0.0) for p in PHASES)
        row = ["rank %d" % tid]
        for p in PHASES:
            us = spans.get((tid, p), 0.0)
            pct = 100.0 * us / total if total else 0.0
            row.append("%s (%4.1f%%)" % (fmt_ns(us * 1e3), pct))
        rows.append(row)
    print("\n== per-rank phase breakdown ==")
    print(table(["rank"] + list(PHASES), rows))


def report_flows(events):
    ids = {ph: set() for ph in "stf"}
    send_ts = {}
    apply_ts = {}
    for e in events:
        ph = e.get("ph")
        if ph in ids and "id" in e:
            ids[ph].add(e["id"])
            if ph == "s":
                send_ts[e["id"]] = e["ts"]
            elif ph == "t":
                apply_ts[e["id"]] = e["ts"]
    if not ids["s"]:
        print("\n== flow summary ==\nno flow events in trace "
              "(run with flow tracing enabled to get s/t/f lineage)")
        return
    triples = ids["s"] & ids["t"] & ids["f"]
    print("\n== flow summary ==")
    print("sent (s): %d   applied (t): %d   consumed (f): %d   "
          "complete s->t->f triples: %d" %
          (len(ids["s"]), len(ids["t"]), len(ids["f"]), len(triples)))
    lost = ids["s"] - ids["t"]
    unconsumed = ids["t"] - ids["f"]
    if lost:
        print("never applied: %d (dead receiver or overwritten in flight)" % len(lost))
    if unconsumed:
        print("applied but never folded: %d (overwritten before gather)" % len(unconsumed))
    lat = sorted(apply_ts[i] - send_ts[i] for i in ids["s"] & ids["t"])
    if lat:
        def q(p):
            return lat[min(len(lat) - 1, int(p * len(lat)))]
        print("send->apply latency: p50=%s p90=%s p99=%s max=%s" %
              (fmt_ns(q(0.5) * 1e3), fmt_ns(q(0.9) * 1e3),
               fmt_ns(q(0.99) * 1e3), fmt_ns(lat[-1] * 1e3)))


# --- stream: metric samples ------------------------------------------------


def extract_edges(counters, histograms):
    edges = collections.defaultdict(dict)
    for cells in (counters, histograms):
        for name, value in cells.items():
            m = EDGE_RE.match(name)
            if m:
                edges[(int(m.group(1)), int(m.group(2)))][m.group(3)] = value
    return edges


def report_samples(records):
    """Renders the sample timeline; returns the stream's cumulative edges."""
    # Typed records (critical_path) interleave with the untyped samples.
    samples = [r for r in records if "type" not in r]
    if not samples:
        print("\n== stream ==\nno metric samples in stream file")
        return {}
    print("\n== stream timeline (%d samples) ==" % len(samples))
    rows = []
    for r in samples:
        counters = r.get("counters", {})
        top = sorted(((v, k) for k, v in counters.items()
                      if not k.startswith("comm.edge.")), reverse=True)[:3]
        rows.append([r["seq"], fmt_ns(r["ts_ns"]),
                     ", ".join("%s+%d" % (k, v) for v, k in top) or "(quiet)"])
    print(table(["seq", "ts", "top counter deltas"], rows))

    # Cumulative view for the edge table: sum counter deltas, keep the last
    # absolute histogram snapshot per name.
    counters = collections.Counter()
    histograms = {}
    for r in samples:
        for k, v in r.get("counters", {}).items():
            counters[k] += v
        histograms.update(r.get("histograms", {}))
    dropped = counters.get("telemetry.trace.dropped", 0)
    if dropped:
        print("warning: %d trace events dropped during the run" % dropped)
    return extract_edges(counters, histograms)


def report_edges(edges):
    if not edges:
        return
    rows = []
    for (src, dst), cells in sorted(edges.items()):
        delivery = cells.get("delivery_ns") or {}
        staleness = cells.get("staleness_epochs") or {}
        rows.append([
            "%d->%d" % (src, dst),
            cells.get("msgs", 0),
            cells.get("bytes", 0),
            fmt_ns(delivery["p50"]) if "p50" in delivery else "-",
            fmt_ns(delivery["p99"]) if "p99" in delivery else "-",
            "%.1f" % staleness["p50"] if "p50" in staleness else "-",
        ])
    print("\n== per-edge communication ==")
    print(table(["edge", "msgs", "bytes", "deliver p50", "deliver p99",
                 "staleness p50 (epochs)"], rows))


# --- stream: health records ------------------------------------------------


def report_critical_paths(records):
    paths = [r for r in records if r.get("type") == "critical_path"]
    if not paths:
        print("\n== critical paths ==\nno critical_path records "
              "(did the app call Worker::BeginEpoch?)")
        return paths
    print("\n== per-epoch critical path (%d epochs) ==" % len(paths))
    rows = []
    for p in paths:
        wall = max(p["wall_ns"], 1)
        split = "/".join("%d%%" % round(100.0 * p[k] / wall)
                         for k in ("compute_ns", "scatter_ns", "gather_ns",
                                   "wait_ns"))
        waiting = ("rank %d (%s)" % (p["waiting_on"], fmt_ns(p["waiting_on_ns"]))
                   if p.get("waiting_on", -1) >= 0 else "-")
        rows.append([
            p["epoch"], p["ranks"], p["critical_rank"], fmt_ns(p["wall_ns"]),
            split, waiting, "%.2f" % p.get("max_z", 0.0),
            p["straggler"] if p.get("straggler", -1) >= 0 else "-",
        ])
    print(table(["epoch", "ranks", "critical rank", "wall",
                 "comp/scat/gath/wait", "waiting on", "max z", "straggler"],
                rows))
    return paths


def report_stragglers(paths):
    if not paths:
        return
    flagged = collections.Counter(p["straggler"] for p in paths
                                  if p.get("straggler", -1) >= 0)
    critical = collections.Counter(p["critical_rank"] for p in paths
                                   if p.get("critical_rank", -1) >= 0)
    print("\n== straggler summary ==")
    if not flagged:
        print("no epochs flagged a straggler")
    rows = [[r, critical.get(r, 0), flagged.get(r, 0),
             "STRAGGLER" if flagged.get(r, 0) else ""]
            for r in sorted(set(flagged) | set(critical))]
    print(table(["rank", "epochs critical", "epochs flagged", ""], rows))


# --- metrics report ----------------------------------------------------------


def report_watermarks(aggregate, path):
    """health.rank.<r>.<leaf> gauges, one row per rank."""
    per_rank = collections.defaultdict(dict)
    for name, value in aggregate.get("gauges", {}).items():
        m = HEALTH_RE.match(name)
        if m:
            per_rank[int(m.group(1))][m.group(2)] = value
    if not per_rank:
        print("\n== rank watermarks ==\nno health.rank.* gauges in %s" % path)
        return
    print("\n== rank watermarks ==")
    rows = []
    for rank in sorted(per_rank):
        g = per_rank[rank]
        flags = []
        if g.get("dead"):
            flags.append("DEAD")
        if g.get("straggler_epochs", 0) > 0:
            flags.append("STRAGGLER")
        rows.append([rank] +
                    [("%g" % g[c]) if c in g else "-" for c in WATERMARK_COLS] +
                    [" ".join(flags)])
    print(table(["rank"] + list(WATERMARK_COLS) + [""], rows))


# --- postmortem bundle -------------------------------------------------------


def report_postmortem(records):
    print("\n== postmortem bundle (%d records) ==" % len(records))
    rows = []
    for r in records:
        sections = r.get("sections", {})
        extra = ""
        if "signal" in r:
            extra = "signal %d" % r["signal"]
        elif "checker" in sections:
            try:
                v = maybe_json(sections["checker"]).get("violations", 0)
                extra = "%d violations" % (v if isinstance(v, int) else len(v))
            except (ValueError, AttributeError):
                pass
        rows.append([r.get("reason", "?"), fmt_ns(r.get("ts_ns", 0)),
                     ",".join(sorted(sections)) or "-", extra])
    print(table(["reason", "ts", "sections", ""], rows))
    # Surface the recorded watermarks of the final dump, if any carried them.
    for r in reversed(records):
        wm = r.get("sections", {}).get("watermarks")
        if not wm:
            continue
        try:
            wm = maybe_json(wm)
        except ValueError:
            break
        rows = [[w.get("rank"), w.get("epoch"), w.get("straggler_epochs"),
                 "DEAD" if w.get("dead") else ""] for w in wm]
        print("\n== watermarks at last dump ==")
        print(table(["rank", "last epoch", "straggler epochs", ""], rows))
        break


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--trace", help="Chrome trace JSON (--trace_out)")
    ap.add_argument("--stream", help="NDJSON metrics stream (--metrics_stream)")
    ap.add_argument("--metrics", help="metrics report JSON (--metrics_out)")
    ap.add_argument("--postmortem", help="postmortem bundle (--postmortem_out)")
    args = ap.parse_args()
    if not (args.trace or args.stream or args.metrics or args.postmortem):
        ap.error("need at least one of --trace / --stream / --metrics / --postmortem")

    if args.trace:
        doc = load_json(args.trace)
        events = doc["traceEvents"] if isinstance(doc, dict) else doc
        print("trace: %d events" % len(events))
        report_phases(events)
        report_flows(events)

    edges = {}
    if args.stream:
        records = load_ndjson(args.stream)
        edges = report_samples(records)
        report_stragglers(report_critical_paths(records))
    aggregate = None
    if args.metrics:
        doc = load_json(args.metrics)
        aggregate = doc.get("aggregate", doc)
        # The metrics report is authoritative (absolute, end-of-run).
        edges = extract_edges(aggregate.get("counters", {}),
                              aggregate.get("histograms", {})) or edges
    report_edges(edges)
    if aggregate is not None:
        report_watermarks(aggregate, args.metrics)
    if args.postmortem:
        report_postmortem(load_ndjson(args.postmortem))
    return 0


if __name__ == "__main__":
    sys.exit(main())
