"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import math
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

from serve_bench import (  # noqa: E402
    C1_PER_SECOND,
    C32_REQUESTS,
    COLD_SPACE,
    OPEN_RATE_RPS,
    OPEN_SHARE,
    ROUNDS,
    Traffic,
    cell_key,
    cold_cell,
)
from spans import Tracer, covered_ns, layer_table, self_times_ns  # noqa: E402
from stats import Outcome, percentile, quartiles, read_cpu_ns  # noqa: E402


class TestPercentile:
    def test_interpolated_and_count(self):
        values = [float(v) for v in range(10, 0, -1)]  # 10 .. 1, unsorted
        assert percentile(values, 50) == (5.5, 10)
        assert percentile(values, 90) == (pytest.approx(9.1), 10)
        assert percentile(values, 0) == (1.0, 10)
        assert percentile(values, 100) == (10.0, 10)
        assert percentile([3.0], 90) == (3.0, 1)

    def test_median_matches_statistics(self):
        values = [0.3, 7.0, 1.5, 2.25]
        assert percentile(values, 50)[0] == quartiles(values)[1] == 1.875

    def test_empty_sample(self):
        value, n = percentile([], 50)
        assert math.isnan(value) and n == 0

    def test_outcome_records_counts_beside_values(self):
        out = Outcome()
        out.put_percentiles("_open", [1.0, 2.0, 3.0])
        assert out.values["p50_ms_open"] == 2.0
        assert out.samples["p90_ms_open"] == 3
        assert out.units["p99_ms_open"] == "ms"

    def test_quartiles_single_value(self):
        assert quartiles([4.0]) == (4.0, 4.0, 4.0)

    def test_cpu_of_a_process_counts_its_work_not_its_sleep(self):
        pid = os.getpid()
        before = read_cpu_ns(pid)
        time.sleep(0.05)
        slept = read_cpu_ns(pid) - before
        start = time.process_time_ns()
        while time.process_time_ns() - start < 50_000_000:
            pass
        busy = read_cpu_ns(pid) - before - slept
        assert slept < 10_000_000
        assert busy >= 40_000_000


class TestSelfTime:
    def test_children_clipped_to_parent_and_merged(self):
        # parent [10, 20); children overlap each other and spill outside it
        children = [(5, 12), (11, 14), (18, 25)]
        assert covered_ns(10, 20, children) == (14 - 10) + (20 - 18)

    def test_disjoint_and_outside_children(self):
        assert covered_ns(0, 100, [(10, 20), (30, 40)]) == 20
        assert covered_ns(0, 100, [(100, 120), (-5, 0)]) == 0

    def test_self_times_of_a_tree(self):
        spans = [
            ["root", 0, 100, None, None, {}],
            ["a", 10, 40, 0, None, {}],
            ["b", 30, 60, 0, None, {}],  # overlaps a
            ["a.child", 15, 20, 1, None, {}],
        ]
        assert self_times_ns(spans) == [100 - 50, 30 - 5, 30, 5]

    def test_tracer_nests_and_aggregates(self):
        tracer = Tracer()

        def inner(x):
            return [x] * x

        traced_inner = tracer.wrap(inner, "inner",
                                   counts=lambda args, r: {"rows": len(r)})
        with tracer.span("outer"):
            traced_inner(2)
            traced_inner(3)
        table = layer_table(tracer.spans)
        assert table["inner"]["calls"] == 2
        assert table["inner"]["rows"] == 5
        assert tracer.spans[1][3] == 0  # parent of the first inner call
        outer = table["outer"]
        assert outer["self_s"] == pytest.approx(
            outer["total_s"] - table["inner"]["total_s"])


class TestTraffic:
    @pytest.mark.parametrize("workload", ["serve-hot", "serve-cold"])
    def test_same_seed_same_payloads_and_due_times(self, workload):
        def draw(seed):
            traffic = Traffic(workload, seed)
            return (traffic.warmup(), traffic.take(200),
                    traffic.schedule(OPEN_RATE_RPS[workload], 2.0))

        assert draw(7) == draw(7)
        assert draw(7) != draw(8)

    def test_due_times_are_increasing_and_inside_the_phase(self):
        due = Traffic("serve-cold", 3).schedule(300.0, 2.0)
        assert all(a < b for a, b in zip(due, due[1:]))
        assert 0 < due[0] and due[-1] < 2.0
        assert 450 < len(due) < 750  # ~600 expected at 300 rps

    @pytest.mark.parametrize("seconds", [8, 60])
    def test_cold_repeat_share_below_ten_percent(self, seconds):
        # the draws of one run, in the order the rounds make them
        workload = "serve-cold"
        traffic = Traffic(workload, 5)
        traffic.warmup()
        traffic.taken = traffic.repeats = 0
        per_round = round(C1_PER_SECOND[workload] * seconds / ROUNDS)
        for _ in range(ROUNDS):
            for _ in range(per_round):
                traffic.take(1)
            traffic.take(C32_REQUESTS[workload] // ROUNDS)
            due = traffic.schedule(OPEN_RATE_RPS[workload],
                                   OPEN_SHARE * seconds / ROUNDS)
            traffic.take(len(due))
        assert traffic.repeats / traffic.taken < 0.10

    def test_cold_space_decodes_to_distinct_cells(self):
        step = 997  # a prime stride samples every digit of the mixed radix
        keys = {cell_key(cold_cell(i)) for i in range(0, COLD_SPACE, step)}
        assert len(keys) == len(range(0, COLD_SPACE, step))
