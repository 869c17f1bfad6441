"""Close the co-design loop: recommend a chip for a serving workload.

Given a network and an area budget, search vector length x cache x core
count jointly with the algorithm policy, then stress the recommended design
with a virtual-clock replay of Poisson traffic to see its latency under load —
the end-to-end version of the papers' "co-design for model serving" message.

Run:  python examples/design_recommender.py [area_budget_mm2]
"""

import sys

from repro.nn.models import vgg16_conv_specs
from repro.serve import FixedServiceTime, TraceSpec, generate_trace, replay
from repro.serving import recommend_design
from repro.serving.colocation import ColocationScenario, evaluate_colocation
from repro.utils.tables import Table


def main(budget_mm2: float = 40.0) -> None:
    specs = vgg16_conv_specs()
    print(f"Searching designs for VGG-16 serving within {budget_mm2:.0f} mm^2...\n")

    table = Table(["policy", "recommended design"])
    recs = {}
    for policy in ("im2col_gemm6", "optimal"):
        rec = recommend_design(specs, budget_mm2, policy=policy)
        recs[policy] = rec
        table.add_row([policy, rec.describe()])
    print(table.render())
    gain = (
        recs["optimal"].images_per_second / recs["im2col_gemm6"].images_per_second
    )
    print(f"Per-layer algorithm selection buys {gain:.2f}x throughput in the "
          f"same area budget.\n")

    rec = recs["optimal"]
    scenario = ColocationScenario(
        cores=rec.cores, vlen_bits=rec.vlen_bits,
        shared_l2_mib=rec.shared_l2_mib, instances=rec.cores,
        policy="optimal",
    )
    # one replica per core, each serving at the analytical per-image time
    service_s = evaluate_colocation(scenario, specs).cycles_per_image / 2e9
    capacity = scenario.instances / service_s
    print(f"Stress-testing the recommended design "
          f"(capacity {capacity:.1f} req/s):")
    load_table = Table(["offered load", "p50 latency (ms)", "p99 latency (ms)",
                        "utilization"])
    for frac in (0.3, 0.6, 0.9):
        trace = generate_trace(TraceSpec("uniform", 3000, frac * capacity, 11))
        stats = replay(
            FixedServiceTime(service_s), trace,
            servers=scenario.instances, max_batch=1,
        ).stats
        load_table.add_row(
            [f"{frac:.0%}", stats.p50 * 1e3, stats.p99 * 1e3,
             f"{stats.utilization:.0%}"]
        )
    print(load_table.render())


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 40.0)
