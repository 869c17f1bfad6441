"""Exporters for recorded observability data.

Three output formats:

* :func:`to_dict` / :func:`to_json` — a plain-data dump (span list,
  counter values, gauge stats, histogram summaries) for programmatic
  consumption;
* :func:`render_table` — a terminal span tree (aggregated by call path:
  count, total, self time, share of wall time) followed by the metric
  tables;
* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` JSON format (``"ph": "X"`` complete events plus
  ``"ph": "C"`` counter samples), loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.recorder import Recorder, SpanRecord

#: Aggregated span-tree node: (count, total_ns, child_ns).
_SpanNode = dict[str, Any]


# --------------------------------------------------------------------- #
# plain data
# --------------------------------------------------------------------- #
def to_dict(recorder: Recorder) -> dict[str, Any]:
    """Everything the recorder collected, as JSON-ready plain data."""
    return {
        "elapsed_s": recorder.elapsed_s(),
        "spans": [
            {
                "id": s.span_id,
                "parent": s.parent_id,
                "name": s.name,
                "cat": s.cat,
                "start_ns": s.start_ns,
                "dur_ns": s.dur_ns,
                "pid": s.pid,
                "tid": s.tid,
                "attrs": dict(s.attrs) if s.attrs else None,
            }
            for s in recorder.iter_spans()
        ],
        "counters": recorder.counters.as_dict(),
        "gauges": recorder.gauges.as_dict(),
        "histograms": {
            name: summary.as_dict()
            for name, summary in recorder.histograms.summaries().items()
        },
    }


def to_json(recorder: Recorder, indent: int | None = None) -> str:
    return json.dumps(to_dict(recorder), indent=indent, sort_keys=False)


# --------------------------------------------------------------------- #
# span-tree aggregation + terminal table
# --------------------------------------------------------------------- #
def aggregate_spans(spans: list[SpanRecord]) -> dict[tuple[str, ...], _SpanNode]:
    """Aggregate spans by call path (the chain of span names to the root).

    Returns ``path -> {"count", "total_ns", "self_ns", "cat"}`` where
    ``self_ns`` is total time minus the time of direct children.
    """
    by_id = {s.span_id: s for s in spans}

    def path_of(span: SpanRecord) -> tuple[str, ...]:
        names: list[str] = []
        cur: SpanRecord | None = span
        while cur is not None:
            names.append(cur.name)
            cur = by_id.get(cur.parent_id)
        return tuple(reversed(names))

    nodes: dict[tuple[str, ...], _SpanNode] = {}
    paths = {s.span_id: path_of(s) for s in spans}
    for s in spans:
        path = paths[s.span_id]
        node = nodes.setdefault(
            path, {"count": 0, "total_ns": 0, "self_ns": 0, "cat": s.cat}
        )
        node["count"] += 1
        node["total_ns"] += s.dur_ns
        node["self_ns"] += s.dur_ns
    for s in spans:  # subtract child time from the parent's self time
        parent = by_id.get(s.parent_id)
        if parent is not None:
            nodes[paths[parent.span_id]]["self_ns"] -= s.dur_ns
    return nodes


def render_table(recorder: Recorder, wall_s: float | None = None) -> str:
    """Aggregated span tree + counter/gauge/histogram tables as text."""
    wall = wall_s if wall_s is not None else recorder.elapsed_s()
    spans = list(recorder.iter_spans())
    lines: list[str] = []
    header = f"{'span':<52} {'count':>8} {'total s':>10} {'self s':>10} {'%wall':>7}"
    lines.append("== spans " + "=" * max(0, len(header) - 9))
    lines.append(header)
    nodes = aggregate_spans(spans)
    for path in sorted(nodes, key=lambda p: (p[:-1], -nodes[p]["total_ns"])):
        node = nodes[path]
        indent = "  " * (len(path) - 1)
        label = f"{indent}{path[-1]}"
        share = 100.0 * node["total_ns"] / 1e9 / wall if wall > 0 else 0.0
        lines.append(
            f"{label:<52} {node['count']:>8} {node['total_ns'] / 1e9:>10.4f} "
            f"{node['self_ns'] / 1e9:>10.4f} {share:>6.1f}%"
        )
    top_ns = sum(n["total_ns"] for p, n in nodes.items() if len(p) == 1)
    lines.append(
        f"{'(total / wall)':<52} {'':>8} {top_ns / 1e9:>10.4f} "
        f"{'':>10} {100.0 * top_ns / 1e9 / wall if wall > 0 else 0.0:>6.1f}%"
    )

    counters = recorder.counters.as_dict()
    if counters:
        lines.append("")
        lines.append("== counters")
        for name in sorted(counters):
            lines.append(f"{name:<52} {counters[name]:>16,.0f}")

    gauges = recorder.gauges.as_dict()
    if gauges:
        lines.append("")
        lines.append("== gauges")
        lines.append(f"{'gauge':<52} {'last':>10} {'min':>10} {'mean':>10} {'max':>10}")
        for name in sorted(gauges):
            g = gauges[name]
            lines.append(
                f"{name:<52} {g['last']:>10.3f} {g['min']:>10.3f} "
                f"{g['mean']:>10.3f} {g['max']:>10.3f}"
            )

    summaries = recorder.histograms.summaries()
    if summaries:
        lines.append("")
        lines.append("== histograms")
        lines.append(
            f"{'histogram':<40} {'count':>8} {'mean':>10} {'p50':>10} "
            f"{'p95':>10} {'p99':>10} {'max':>10}"
        )
        for name in sorted(summaries):
            s = summaries[name]
            lines.append(
                f"{name:<40} {s.count:>8} {s.mean:>10.4g} {s.p50:>10.4g} "
                f"{s.p95:>10.4g} {s.p99:>10.4g} {s.max:>10.4g}"
            )
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Chrome trace_event format
# --------------------------------------------------------------------- #
def chrome_trace(recorder: Recorder) -> dict[str, Any]:
    """The recorder's data in Chrome ``trace_event`` JSON object form.

    Spans become ``"ph": "X"`` (complete) events with microsecond
    timestamps relative to the recorder's start; counters and gauges
    become ``"ph": "C"`` counter samples; histogram summaries ride along
    in ``otherData``.  The object form (``{"traceEvents": [...]}``) is
    what Perfetto and ``chrome://tracing`` both accept.
    """
    start = recorder.start_ns
    events: list[dict[str, Any]] = []
    max_ts = 0.0
    for s in recorder.iter_spans():
        ts = (s.start_ns - start) / 1e3
        dur = s.dur_ns / 1e3
        max_ts = max(max_ts, ts + dur)
        event: dict[str, Any] = {
            "name": s.name,
            "cat": s.cat or "span",
            "ph": "X",
            "ts": ts,
            "dur": dur,
            "pid": s.pid,
            "tid": s.tid,
        }
        if s.attrs:
            event["args"] = {k: _jsonable(v) for k, v in s.attrs.items()}
        events.append(event)
    pid = events[0]["pid"] if events else 0
    for name, value in sorted(recorder.counters.as_dict().items()):
        events.append(
            {
                "name": name,
                "cat": "counter",
                "ph": "C",
                "ts": max_ts,
                "pid": pid,
                "args": {"value": value},
            }
        )
    for name, gauge in sorted(recorder.gauges.as_dict().items()):
        events.append(
            {
                "name": name,
                "cat": "gauge",
                "ph": "C",
                "ts": max_ts,
                "pid": pid,
                "args": {"last": gauge["last"], "max": gauge["max"]},
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "histograms": {
                name: summary.as_dict()
                for name, summary in recorder.histograms.summaries().items()
            },
            "counters": recorder.counters.as_dict(),
        },
    }


def write_chrome_trace(recorder: Recorder, path: str) -> None:
    """Serialize :func:`chrome_trace` to ``path``."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(recorder), fh)


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
