"""Workload ``paper2``: regenerate the default Paper II artifact set.

Each regeneration is a fresh process that runs ``repro-experiments`` with
no names and ``--workers 1``, so it builds exactly the set the command
builds by default, with the in-memory memo cache only.  Its tables go to
``/dev/null``; nothing may be written under ``results/``.

Run as a script this file is that child process; the benchmark imports
it for :func:`measure`.  The seed does not enter this workload: its
inputs are the paper's fixed layer and hardware grids.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import proc
from layers import put_layers, trace_schedule, trace_selection_and_engine
from spans import Tracer, layer_table
from stats import Outcome, peak_rss_mib

#: Fresh processes started only to time set-up; their median is setup_s.
SETUP_PROBES = 5
#: Per-layer metrics this workload adds to the span-derived ones.
LAYER_METRICS = ("paper2.unattributed_frac",)
GOLDEN = proc.ROOT / "tests" / "golden" / "headlines.json"


class _SetupDone(Exception):
    """Raised at the first workload call of a set-up probe."""


def _golden_checks(data: dict) -> dict[str, bool]:
    """The headline values of this run against the committed golden file."""
    golden = json.loads(GOLDEN.read_text())
    checks = {
        "fig01": data["fig01"]["winners"] == golden["fig01_winners"],
        "fig02": data["fig02"]["winners"] == golden["fig02_winners"],
    }
    for name, key in (("fig09", "fig09_ratios"), ("fig10", "fig10_ratios")):
        ratios = data[name]["max_speedup_vs_single"]
        checks[name] = all(
            math.isclose(ratios[algo], want, rel_tol=1e-3)
            for algo, want in golden[key].items()
        )
    knee = data["fig11"]["knee"].payload
    checks["fig11"] = all(
        knee[k] == golden["fig11_knee"][k] for k in ("policy", "vlen", "l2_mib")
    )
    return checks


def _files_under(path: Path) -> set[str]:
    return {str(p) for p in path.rglob("*")} if path.exists() else set()


def child(argv: list[str]) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    from repro.experiments import cli

    tracer = None
    if args.spans is not None:
        tracer = Tracer()
        trace_selection_and_engine(tracer)
        trace_schedule(tracer)

    first: list[float] = []
    cpu_first: list[float] = []
    seconds: dict[str, float] = {}
    data: dict[str, dict] = {}

    def run_one(name: str):
        module = importlib.import_module(cli.EXPERIMENTS[name])
        if tracer is not None:
            tracer.repatch()  # the harness may have imported patched names
        return module.run()

    def run_experiment(name: str):
        if not first:
            first.append(time.monotonic())
            cpu_first.append(time.process_time())
            if args.setup_only:
                raise _SetupDone
        start = time.perf_counter()
        if tracer is not None:
            result = tracer.wrap(run_one, f"experiments.{name}")(name)
        else:
            result = run_one(name)
        seconds[name] = time.perf_counter() - start
        data[name] = result.data
        return result

    cli.run_experiment = run_experiment
    before = _files_under(proc.ROOT / "results")
    try:
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            code = cli.main(["--workers", "1"])
    except _SetupDone:
        proc.emit({"first": first[0]})
        return
    end = time.monotonic()
    cpu = time.process_time() - cpu_first[0]
    if code != 0:
        raise SystemExit(f"repro-experiments exited {code}")
    payload = {
        "first": first[0],
        "wall_s": end - first[0],
        "cpu_s": cpu,
        "seconds": seconds,
        "checks": _golden_checks(data),
        "written": sorted(_files_under(proc.ROOT / "results") - before),
        "peak_rss_mib": peak_rss_mib(),
    }
    if tracer is not None:
        tracer.dump(args.spans)
        payload["layers"] = layer_table(tracer.spans)
    proc.emit(payload)


def _check(out: Outcome, res: dict) -> None:
    """Count one regeneration's artifacts and its failed golden checks."""
    out.attempted += len(res["seconds"])
    bad = [name for name, ok in res["checks"].items() if not ok]
    out.failed += len(bad) + (1 if res["written"] else 0)
    out.notes += [f"golden mismatch: {name}" for name in bad]
    out.notes += [f"wrote under results/: {path}" for path in res["written"]]


def _untraced(out: Outcome, seconds: float) -> None:
    setups = []
    for _ in range(SETUP_PROBES):
        spawned, res = proc.run_child("paper2.py", ["--setup-only"], 120)
        setups.append(res["first"] - spawned)
    runs = []
    deadline = time.monotonic() + seconds
    while not runs or time.monotonic() < deadline:
        spawned, res = proc.run_child("paper2.py", [], 170)
        setups.append(res["first"] - spawned)
        runs.append(res)
        _check(out, res)
    walls = [r["wall_s"] for r in runs]
    out.put("setup_s", statistics.median(setups), "s", len(setups))
    out.put("wall_s", statistics.median(walls), "s", len(walls))
    # the unit of work is one regeneration, so its latency is the wall time
    out.put_percentiles("", [w * 1e3 for w in walls])
    out.put("cpu_ms", statistics.median(r["cpu_s"] for r in runs) * 1e3, "ms",
            len(runs))
    out.put("peak_rss_mib", max(r["peak_rss_mib"] for r in runs), "MiB", len(runs))
    for name in runs[0]["seconds"]:
        out.put(f"experiment.{name}_s",
                statistics.median(r["seconds"][name] for r in runs), "s", len(runs))
    out.notes.append(
        f"paper2: {len(runs)} regeneration(s) of {len(runs[0]['seconds'])} "
        f"artifacts, one process each, --workers 1, memory cache only"
    )


def _earlier_walls() -> list[float]:
    """``wall_s`` of the untraced ``paper2`` runs already in the results."""
    walls = []
    for path in proc.RESULTS.glob("paper2-*-trace0-*.json"):
        walls.append(json.loads(path.read_text())["values"]["wall_s"])
    return walls


def measure(seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    if not traced:
        _untraced(out, seconds)
        return out
    # A regeneration takes about a minute, so the traced run compares with
    # the untraced runs already recorded in this checkout and measures one
    # itself only when there are none.
    walls = _earlier_walls()
    if not walls:
        _untraced(out, seconds)
        walls = [out.values["wall_s"]]
    spans_path = proc.RESULTS / f"spans-paper2-{os.getpid()}.json"
    _, res = proc.run_child("paper2.py", ["--spans", str(spans_path)], 170)
    _check(out, res)
    put_layers(out, res["layers"])
    experiments = sum(
        row["total_s"] for name, row in res["layers"].items()
        if name.startswith("experiments.")
    )
    out.put("paper2.unattributed_frac", 1.0 - experiments / res["wall_s"], "frac", 1)
    out.put("trace_overhead_frac",
            res["wall_s"] / statistics.median(walls) - 1.0, "frac", len(walls))
    out.notes.append(f"traced regeneration: {res['wall_s']:.2f} s against the "
                     f"median of {len(walls)} untraced")
    out.notes.append(f"spans written to {spans_path.relative_to(proc.ROOT)}")
    return out


if __name__ == "__main__":
    child(sys.argv[1:])
