#!/usr/bin/env python3
"""Validate a strt telemetry directory (obs::TelemetrySink output).

Usage: check_telemetry.py TELEMETRY_DIR

Checks, with no dependencies beyond the standard library:

  metrics.prom   Prometheus text exposition format 0.0.4: every sample
                 line parses, metric names are legal, every sample is
                 covered by a preceding # TYPE, labels are well-formed
                 name="value" pairs with no duplicate label names and no
                 duplicate (family, labelset) series, histogram bucket
                 counts are cumulative and consistent with _count/_sum.
  trace.json     Chrome Trace Event Format carrying schema
                 strt.obs.trace.v1: complete "X" events only, span ids
                 unique per trace, parent links resolve within the
                 trace, durations non-negative.
  events.jsonl   one strt.obs.report.v2 JSON object per line.

Exit status 0 when everything holds; 1 with a message otherwise.
"""

import json
import re
import sys
from pathlib import Path

METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_LINE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[0-9eE.+-]+|NaN|[+-]Inf)$"
)
TYPE_LINE = re.compile(
    r"^# TYPE (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r" (?P<type>counter|gauge|histogram|summary|untyped)$"
)

LABEL_PAIR = re.compile(
    r'^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$'
)

TRACE_SCHEMA = "strt.obs.trace.v1"
REPORT_SCHEMA = "strt.obs.report.v2"

def fail(msg):
    print(f"check_telemetry: {msg}", file=sys.stderr)
    sys.exit(1)


def parse_labels(labels, where):
    """Label body ({...} contents) -> dict; fails on malformed pairs or
    duplicate label names.  (Values containing a bare comma would split
    wrong; the exporter never emits any.)"""
    if not labels:
        return {}
    out = {}
    for pair in labels.split(","):
        m = LABEL_PAIR.match(pair)
        if not m:
            fail(f"{where}: malformed label pair {pair!r}")
        if m.group("name") in out:
            fail(f"{where}: duplicate label name {m.group('name')!r}")
        out[m.group("name")] = m.group("value")
    return out


def base_metric(name):
    """Strip histogram/summary sample suffixes back to the family name."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def check_prometheus(path):
    types = {}
    histograms = {}  # family -> list of (le, cumulative_count)
    scalars = {}  # family suffix samples: _sum/_count values
    series = set()  # (name, frozen labelset) -- duplicates are illegal
    samples = 0
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if line.startswith("# TYPE "):
                m = TYPE_LINE.match(line)
                if not m:
                    fail(f"{path}:{lineno}: malformed TYPE line: {line!r}")
                types[m.group("name")] = m.group("type")
            continue
        m = SAMPLE_LINE.match(line)
        if not m:
            fail(f"{path}:{lineno}: malformed sample line: {line!r}")
        name = m.group("name")
        family = base_metric(name)
        declared = types.get(name) or types.get(family)
        if declared is None:
            fail(f"{path}:{lineno}: sample {name!r} has no # TYPE line")
        labelset = parse_labels(m.group("labels") or "",
                                f"{path}:{lineno}")
        key = (name, frozenset(labelset.items()))
        if key in series:
            fail(f"{path}:{lineno}: duplicate series {line!r}")
        series.add(key)
        value = float(m.group("value")) if m.group("value") not in (
            "NaN", "+Inf", "-Inf") else m.group("value")
        samples += 1
        if declared == "histogram" and name.endswith("_bucket"):
            if "le" not in labelset:
                fail(f"{path}:{lineno}: histogram bucket without le label")
            histograms.setdefault(family, []).append(
                (labelset["le"], float(value)))
        elif declared == "histogram":
            scalars[name] = float(value)
    for family, buckets in histograms.items():
        counts = [c for (_le, c) in buckets]
        if counts != sorted(counts):
            fail(f"{path}: {family} bucket counts are not cumulative")
        if buckets[-1][0] != "+Inf":
            fail(f"{path}: {family} is missing the +Inf bucket")
        count = scalars.get(f"{family}_count")
        if count is None:
            fail(f"{path}: {family} has buckets but no _count sample")
        if buckets[-1][1] != count:
            fail(
                f"{path}: {family} +Inf bucket {buckets[-1][1]} != "
                f"_count {count}"
            )
        if f"{family}_sum" not in scalars:
            fail(f"{path}: {family} has buckets but no _sum sample")
    print(f"  metrics.prom: {samples} samples, "
          f"{len(histograms)} histogram(s) -- ok")


def check_trace(path):
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        fail(f"{path}: not valid JSON: {e}")
    schema = doc.get("otherData", {}).get("schema")
    if schema != TRACE_SCHEMA:
        fail(f"{path}: schema {schema!r}, expected {TRACE_SCHEMA!r}")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail(f"{path}: traceEvents is not a list")
    spans_by_trace = {}
    for i, ev in enumerate(events):
        for key in ("name", "ph", "ts", "dur", "pid", "tid", "args"):
            if key not in ev:
                fail(f"{path}: event {i} is missing {key!r}")
        if ev["ph"] != "X":
            fail(f"{path}: event {i} is not a complete ('X') event")
        if ev["dur"] < 0:
            fail(f"{path}: event {i} has negative duration")
        args = ev["args"]
        for key in ("trace_id", "span_id", "parent"):
            if key not in args:
                fail(f"{path}: event {i} args is missing {key!r}")
        spans = spans_by_trace.setdefault(args["trace_id"], {})
        sid = args["span_id"]
        if sid in spans:
            fail(f"{path}: duplicate span id {sid} in trace "
                 f"{args['trace_id']}")
        spans[sid] = args["parent"]
    for trace_id, spans in spans_by_trace.items():
        for sid, parent in spans.items():
            if parent != 0 and parent not in spans:
                fail(f"{path}: trace {trace_id} span {sid} has dangling "
                     f"parent {parent}")
    print(f"  trace.json: {len(events)} events across "
          f"{len(spans_by_trace)} trace(s) -- ok")


def check_events(path):
    lines = 0
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as e:
            fail(f"{path}:{lineno}: not valid JSON: {e}")
        if event.get("schema") != REPORT_SCHEMA:
            fail(f"{path}:{lineno}: schema {event.get('schema')!r}, "
                 f"expected {REPORT_SCHEMA!r}")
        lines += 1
    if lines == 0:
        fail(f"{path}: no event lines")
    print(f"  events.jsonl: {lines} event(s) -- ok")


def main():
    args = sys.argv[1:]
    if len(args) != 1:
        fail(f"usage: {sys.argv[0]} TELEMETRY_DIR")
    directory = Path(args[0])
    if not directory.is_dir():
        fail(f"{directory} is not a directory")
    print(f"checking telemetry under {directory}")
    for name, checker in (
        ("metrics.prom", check_prometheus),
        ("trace.json", check_trace),
        ("events.jsonl", check_events),
    ):
        path = directory / name
        if not path.is_file():
            fail(f"missing {path}")
        checker(path)
    print("telemetry ok")


if __name__ == "__main__":
    main()
