"""Compare two result sets: end-to-end quartiles and per-layer self time.

A result set is a directory of the per-run JSON files the benchmark
writes to ``perfbench/results/``.  Copy that directory aside after
running one commit, run the other, then::

    python3 perfbench/run.py --compare OLD_DIR NEW_DIR
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from stats import quartiles


def load(directory: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))
            if not p.name.startswith("spans-")]


def _by_workload(results: list[dict], traced: bool) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in results:
        if bool(r["trace"]) == traced:
            out.setdefault(r["workload"], []).append(r)
    return out


def _fmt(values: list[float]) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:12.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(old_dir: Path, new_dir: Path, gated: list[str], top: int = 15) -> str:
    """The comparison report as text."""
    old, new = load(old_dir), load(new_dir)
    lines = []
    old_runs, new_runs = _by_workload(old, False), _by_workload(new, False)
    for workload in sorted(set(old_runs) & set(new_runs)):
        a, b = old_runs[workload], new_runs[workload]
        lines.append(f"== {workload}: end to end (median [q1, q3]; "
                     f"* = gated in BENCHMARK.json)")
        names = sorted(set(a[0]["values"]) & set(b[0]["values"]),
                       key=lambda n: (n not in gated, n))
        for name in names:
            va = [r["values"][name] for r in a if name in r["values"]]
            vb = [r["values"][name] for r in b if name in r["values"]]
            ma, mb = statistics.median(va), statistics.median(vb)
            change = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
            mark = "*" if name in gated else " "
            lines.append(f" {mark} {name:34s} {a[0]['units'][name]:6s} "
                         f"old {_fmt(va)}  new {_fmt(vb)}  {change}")
    old_traced, new_traced = _by_workload(old, True), _by_workload(new, True)
    for workload in sorted(set(old_traced) & set(new_traced)):
        a, b = old_traced[workload], new_traced[workload]
        spans = set().union(*(r["layers"] for r in a + b))
        deltas = []
        for span in spans:
            sa = statistics.median(r["layers"].get(span, {}).get("self_s", 0.0)
                                   for r in a)
            sb = statistics.median(r["layers"].get(span, {}).get("self_s", 0.0)
                                   for r in b)
            deltas.append((sb - sa, span, sa, sb))
        deltas.sort(key=lambda d: (-abs(d[0]), d[1]))
        lines.append(f"== {workload}: per-layer self time, largest change first")
        for delta, span, sa, sb in deltas[:top]:
            lines.append(f"   {span:40s} old {sa:10.4f} s  new {sb:10.4f} s  "
                         f"{delta:+.4f} s")
    if not lines:
        lines.append("no workload has results on both sides")
    return "\n".join(lines)
