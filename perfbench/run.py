"""End-to-end benchmark of the reproduction: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare OLD_DIR NEW_DIR

Workloads (see ``BENCHMARK.json`` for why each one is there):

* ``paper2``     -- regenerate the default Paper II artifact set;
* ``serve-hot``  -- live ``repro-serve``, repeated payloads (cache hits);
* ``serve-cold`` -- live ``repro-serve``, distinct payloads (cache misses);
* ``trace``      -- ISA kernels plus cache/timing replay of scaled layers.

Every metric the run measured is printed with its unit and sample count;
the last stdout line is one JSON object holding the ``end_to_end``
metrics of ``BENCHMARK.json`` (``--trace 0``) or its ``per_layer``
metrics (``--trace 1``).  A traced run also takes the untraced
measurement -- ``paper2`` reuses the untraced results already recorded --
so that ``trace_overhead_frac`` is the difference between the two.
Each run writes its full result, per-span tables included, to
``perfbench/results/`` for ``--compare``.

The gated end-to-end metrics are the same names on every workload:
``setup_s``, ``cpu_ms`` (the median CPU time the working process spends
on one unit of work with one unit in flight: a request, a sweep of the
trace cells, or a whole Paper II regeneration) and ``peak_rss_mib``.
The matching wall-clock latency, ``p50_ms``, is printed beside it but
not gated: on a shared machine whose host steals CPU time from it, its
run-to-run spread exceeds the largest bound a metric may have, while
CPU time leaves the stolen time out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import proc

WORKLOADS = ("paper2", "serve-hot", "serve-cold", "trace")


def _measure(workload: str, seed: int, seconds: float, traced: bool):
    """The workload's module and its :class:`stats.Outcome`."""
    if workload == "paper2":
        import paper2 as module

        return module, module.measure(seed, seconds, traced)
    if workload == "trace":
        import trace_sweep as module

        return module, module.measure(seed, seconds, traced)
    import serve_bench as module

    return module, module.measure(workload, seed, seconds, traced)


def _report(spec: dict, module, outcome, traced: bool) -> dict:
    """The reported metrics: every name of the matching BENCHMARK.json list.

    A per-layer metric that belongs to another workload's layers reads 0;
    one this workload should have measured but did not is an error.
    """
    metrics = {}
    for entry in spec["per_layer" if traced else "end_to_end"]:
        name = entry["name"]
        if name in outcome.values:
            if outcome.units[name] != entry["unit"]:
                raise ValueError(f"{name}: measured in {outcome.units[name]}, "
                                 f"declared in {entry['unit']}")
            value = outcome.values[name]
        elif traced and name not in module.LAYER_METRICS and name != (
                "trace_overhead_frac"):
            value = 0.0
        else:
            raise KeyError(f"workload did not measure {name}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD_DIR", "NEW_DIR"))
    args = parser.parse_args(argv)

    bench_file = proc.ROOT / "BENCHMARK.json"
    if not (proc.SRC / "repro").is_dir() or not bench_file.is_file():
        print(f"error: no program to benchmark under {proc.SRC}", file=sys.stderr)
        return 2
    spec = json.loads(bench_file.read_text())
    if args.compare:
        from compare import compare
        from pathlib import Path

        gated = [m["name"] for m in spec["end_to_end"]]
        print(compare(Path(args.compare[0]), Path(args.compare[1]), gated))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    sys.path.insert(0, str(proc.SRC))

    from stats import cpu_ticks, fingerprint

    traced = bool(args.trace)
    started = time.monotonic()
    ticks = cpu_ticks()
    module, outcome = _measure(args.workload, args.seed, args.seconds, traced)
    metrics = _report(spec, module, outcome, traced)
    machine = fingerprint()
    stolen, total = (after - before for after, before in zip(cpu_ticks(), ticks))
    machine["steal_frac"] = round(stolen / max(total, 1), 4)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  ({time.monotonic() - started:.1f} s)")
    print("machine " + "  ".join(f"{k}={v}" for k, v in machine.items()))
    for note in outcome.notes:
        print(f"  {note}")
    print(f"  attempted {outcome.attempted}  failed {outcome.failed}  "
          f"failed_frac {outcome.failed / max(outcome.attempted, 1):.6f}")
    for name in sorted(outcome.values):
        print(f"  {name:40s} {outcome.values[name]:14.6g} {outcome.units[name]:6s}"
              f" (n={outcome.samples[name]})")

    proc.RESULTS.mkdir(parents=True, exist_ok=True)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "values": outcome.values,
        "units": outcome.units, "samples": outcome.samples,
        "attempted": outcome.attempted, "failed": outcome.failed,
        "notes": outcome.notes, "layers": outcome.layers,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    (proc.RESULTS / name).write_text(json.dumps(result, indent=1))

    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
