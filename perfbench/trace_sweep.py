"""Workload ``trace``: trace-driven timing of scaled Table 1 layers.

A fixed, seeded set of Table 1 layers (VGG-16 and YOLOv3), scaled down
until one sweep over them traces in about two seconds, is run at 512
and 2048 bit vectors with a 1 MB L2.  For every applicable algorithm each cell emits the
kernel's instruction trace on the functional vector machine
(``run_vectorized``), replays it through the cache and timing model
(``TraceTimingModel.run``, batched) and prices the same layer with the
analytical model (``layer_cycles``).  The share of cells where both
models pick the same fastest algorithm is ``top1_agree``.

The cell set never changes; ``--seed`` draws the input and weight values,
which the kernels' outputs are checked against ``conv2d_reference`` with.
Run as a script this file is the child process that does the work.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import proc
from layers import put_layers
from spans import ATTRS, Tracer, layer_table
from stats import Outcome, peak_rss_mib

SETUP_PROBES = 5
#: Seed of the cell set; fixed so that ``top1_agree`` stays comparable.
CELL_SEED = 11
#: Layers drawn per (kernel size, stride) group of Table 1.
PICKS = {(3, 1): 2, (3, 2): 1, (1, 1): 2}
VLENS = (512, 2048)
L2_MIB = 1.0
LAYER_METRICS = ("top1_agree", "timing.replay_mev_per_s", "sim.cycles_total",
                 "sim.l1_miss_rate", "sim.l2_miss_rate")


def cell_specs():
    """The scaled layers, in a fixed order."""
    import numpy as np

    from repro.experiments.configs import workload
    from repro.nn.layer import ConvSpec

    layers = workload("vgg16") + workload("yolov3")
    rng = np.random.default_rng(CELL_SEED)
    specs = []
    for (kh, stride), count in PICKS.items():
        group = [s for s in layers if (s.kh, s.stride) == (kh, stride)]
        for i in sorted(rng.choice(len(group), count, replace=False)):
            s = group[i]
            specs.append(ConvSpec(
                ic=min(max(s.ic // 8, 3), 32), oc=min(max(s.oc // 8, 3), 32),
                ih=min(max(s.ih // 8, 8), 28), iw=min(max(s.iw // 8, 8), 28),
                kh=s.kh, kw=s.kw, stride=s.stride,
            ))
    return specs


def child(argv: list[str]) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    import numpy as np

    from repro.algorithms import get_algorithm, layer_cycles
    from repro.algorithms.registry import ALGORITHM_NAMES
    from repro.isa import VectorMachine
    from repro.nn.reference import conv2d_reference
    from repro.simulator.hwconfig import HardwareConfig
    from repro.simulator.timing import TraceTimingModel

    tracer = Tracer() if args.spans is not None else None

    def span(name: str):
        return tracer.span(name) if tracer is not None else nullcontext()

    cells = []
    for i, spec in enumerate(cell_specs()):
        rng = np.random.default_rng([args.seed, i])
        x = rng.standard_normal((spec.ic, spec.ih, spec.iw)).astype(np.float32)
        w = (0.3 * rng.standard_normal((spec.oc, spec.ic, spec.kh, spec.kw))
             ).astype(np.float32)
        algos = [a for a in ALGORITHM_NAMES if get_algorithm(a).applicable(spec)]
        for vlen in VLENS:
            cells.append((spec, HardwareConfig.paper2_rvv(vlen, L2_MIB), x, w, algos))

    first = time.monotonic()
    if args.setup_only:
        proc.emit({"first": first})
        return

    refs: dict[int, np.ndarray] = {}
    sweeps = []
    # the first sweep is a warm-up; at least one more is measured
    while len(sweeps) < 2 or time.monotonic() < first + args.seconds:
        start = time.perf_counter()
        cpu_start = time.process_time()
        cell_s, outputs, agree = [], [], 0
        cycles = l1 = l1_access = l2 = l2_access = 0
        for spec, hw, x, w, algos in cells:
            cell_start = time.perf_counter()
            traced, analytical = {}, {}
            for algo in algos:
                with span(f"kernels.{algo}.emit") as index:
                    machine = VectorMachine(hw.vlen_bits, trace=True)
                    out = get_algorithm(algo).run_vectorized(spec, x, w, machine)
                if tracer is not None:
                    tracer.spans[index][ATTRS] = {"events": len(machine.trace)}
                with span("timing.replay") as index:
                    model = TraceTimingModel(hw)
                    result = model.run(machine.trace, flush=True, engine="batched")
                if tracer is not None:
                    tracer.spans[index][ATTRS] = {"events": len(machine.trace)}
                with span("analytical.layer_cycles"):
                    analytical[algo] = layer_cycles(algo, spec, hw,
                                                    fallback=False).cycles
                traced[algo] = result.cycles
                outputs.append((id(x), spec, x, w, out))
                cycles += result.cycles
                l1 += model.hierarchy.l1.stats.misses
                l1_access += model.hierarchy.l1.stats.accesses
                l2 += model.hierarchy.l2.stats.misses
                l2_access += model.hierarchy.l2.stats.accesses
            cell_s.append(time.perf_counter() - cell_start)
            agree += min(traced, key=traced.get) == min(analytical, key=analytical.get)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu_start
        # outside the timed region: every kernel output against the reference
        failed = 0
        for key, spec, x, w, out in outputs:
            if key not in refs:
                refs[key] = conv2d_reference(spec, x, w)
            ref = refs[key]
            scale = max(1.0, float(np.abs(ref).max()))
            failed += not (out.shape == ref.shape
                           and float(np.abs(out - ref).max()) <= 1e-3 * scale)
        sweeps.append({
            "wall_s": wall, "cpu_s": cpu, "cell_s": cell_s, "agree": agree / len(cells),
            "attempted": len(outputs), "failed": failed, "cycles": cycles,
            "l1_miss_rate": l1 / l1_access, "l2_miss_rate": l2 / l2_access,
        })

    payload = {"first": first, "sweeps": sweeps, "cells": len(cells),
               "peak_rss_mib": peak_rss_mib()}
    if tracer is not None:
        tracer.dump(args.spans)
        payload["layers"] = layer_table(tracer.spans)
    proc.emit(payload)


def _measured_walls(sweeps: list[dict]) -> list[float]:
    """Sweep times without the first sweep, which pays first-call costs."""
    return [s["wall_s"] for s in sweeps[1:]]


def measure(seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    setups = []
    base = ["--seed", str(seed), "--seconds", str(seconds)]
    for _ in range(SETUP_PROBES):
        spawned, res = proc.run_child("trace_sweep.py", base + ["--setup-only"], 120)
        setups.append(res["first"] - spawned)
    spawned, res = proc.run_child("trace_sweep.py", base, 170)
    setups.append(res["first"] - spawned)
    sweeps = res["sweeps"]
    walls = _measured_walls(sweeps)
    wall = statistics.median(walls)

    out.put("setup_s", statistics.median(setups), "s", len(setups))
    out.put("wall_s", wall, "s", len(walls))
    # the unit of work is one sweep over the cells
    out.put_percentiles("", [w * 1e3 for w in walls])
    cpus = [s["cpu_s"] * 1e3 for s in sweeps[1:]]
    out.put("cpu_ms", statistics.median(cpus), "ms", len(cpus))
    out.put("peak_rss_mib", res["peak_rss_mib"], "MiB", 1)
    out.put("top1_agree", sweeps[0]["agree"], "frac", res["cells"])
    out.put("sim.cycles_total", sweeps[0]["cycles"], "count", 1)
    out.put("sim.l1_miss_rate", sweeps[0]["l1_miss_rate"], "frac", 1)
    out.put("sim.l2_miss_rate", sweeps[0]["l2_miss_rate"], "frac", 1)
    out.attempted = sum(s["attempted"] for s in sweeps)
    out.failed = sum(s["failed"] for s in sweeps)
    for s in sweeps[1:]:
        # the models are deterministic: every sweep must reproduce the first
        if (s["agree"], s["cycles"]) != (sweeps[0]["agree"], sweeps[0]["cycles"]):
            out.failed += 1
            out.notes.append("a sweep's simulated cycles differ from the first's")
    out.notes.append(
        f"trace: {len(sweeps)} sweeps (the first a warm-up) of {res['cells']} cells "
        f"({len(cell_specs())} scaled Table 1 layers x {len(VLENS)} VLs, "
        f"{L2_MIB:g} MB L2), one cell in flight"
    )

    if traced:
        spans_path = proc.RESULTS / f"spans-trace-{seed}.json"
        _, tres = proc.run_child("trace_sweep.py",
                                 base + ["--spans", str(spans_path)], 170)
        put_layers(out, tres["layers"])
        replay = tres["layers"].get("timing.replay", {})
        out.put("timing.replay_mev_per_s",
                replay.get("events", 0) / replay.get("total_s", 1) / 1e6, "Mev/s", 1)
        traced_wall = statistics.median(_measured_walls(tres["sweeps"]))
        out.put("trace_overhead_frac", traced_wall / wall - 1.0, "frac", 1)
        out.notes.append(f"spans written to {spans_path.relative_to(proc.ROOT)}")
    return out


if __name__ == "__main__":
    child(sys.argv[1:])
