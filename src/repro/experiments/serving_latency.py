"""Serving-latency study: algorithm selection under load.

Operationalizes Fig. 12's finding: on the same 16-core chip serving VGG-16
replicas, per-layer algorithm selection lowers the per-image service time,
which translates into lower tail latency at equal offered load and a higher
saturation throughput.  Offered load is swept as a fraction of the *single-
algorithm* policy's capacity so both policies face identical request
streams.
"""

from __future__ import annotations

from repro.experiments.configs import workload
from repro.experiments.report import ExperimentResult
from repro.serve import FixedServiceTime, TraceSpec, generate_trace, replay
from repro.serving.colocation import ColocationScenario, evaluate_colocation
from repro.utils.tables import Table

LOAD_FRACTIONS: tuple[float, ...] = (0.3, 0.6, 0.8, 0.95)


def run(
    model: str = "vgg16", cores: int = 16, vlen_bits: int = 2048,
    shared_l2_mib: float = 16.0, n_requests: int = 2000, seed: int = 7,
) -> ExperimentResult:
    specs = workload(model)
    policies = ("im2col_gemm6", "optimal")
    service_s: dict[str, float] = {}  # per-image time of one replica
    capacity: dict[str, float] = {}
    for policy in policies:
        scenario = ColocationScenario(
            cores=cores, vlen_bits=vlen_bits, shared_l2_mib=shared_l2_mib,
            instances=cores, policy=policy,
        )
        result = evaluate_colocation(scenario, specs)
        service_s[policy] = result.cycles_per_image / 2e9  # 2 GHz clock
        capacity[policy] = cores / service_s[policy]

    # both policies face the same absolute request rates, anchored to the
    # single-algorithm policy's capacity
    base_capacity = capacity["im2col_gemm6"]
    table = Table(
        ["offered load (of GEMM-6 capacity)", "policy", "throughput rps",
         "mean latency (ms)", "p99 latency (ms)", "utilization"],
        title=f"Serving latency under load: {model}, {cores} cores @ "
              f"{vlen_bits}b, {shared_l2_mib:g}MB shared L2",
    )
    data: dict[tuple[float, str], dict] = {}
    for frac in LOAD_FRACTIONS:
        rate = frac * base_capacity
        trace = generate_trace(TraceSpec("uniform", n_requests, rate, seed))
        for policy in policies:
            stats = replay(
                FixedServiceTime(service_s[policy]), trace,
                servers=cores, max_batch=1,
            ).stats
            data[(frac, policy)] = {
                "throughput": stats.throughput_rps,
                "mean_ms": stats.mean_latency * 1e3,
                "p99_ms": stats.p99 * 1e3,
                "utilization": stats.utilization,
            }
            table.add_row(
                [f"{frac:.0%}", policy, stats.throughput_rps,
                 stats.mean_latency * 1e3, stats.p99 * 1e3,
                 f"{stats.utilization:.0%}"]
            )
    capacity_gain = capacity["optimal"] / base_capacity
    return ExperimentResult(
        experiment="serving-latency",
        description="Tail latency and capacity with vs without selection",
        table=table,
        data={"points": data, "capacity_gain": capacity_gain,
              "capacity_rps": capacity},
    )
