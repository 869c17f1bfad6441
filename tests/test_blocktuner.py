"""Tests for the per-cache 6-loop GEMM block re-tuning (``ablation-blocks``)."""

import pytest

from repro.experiments.ablation_blocks import PAPER_BLOCKS
from repro.experiments.cli import run_experiment


@pytest.fixture(scope="module")
def result():
    return run_experiment("ablation-blocks")


class TestTuner:
    def test_tuned_never_worse(self, result):
        assert all(g >= 1.0 - 1e-9 for g in result.data["speedups"].values())

    def test_paper_blocks_within_15pct_at_1mb(self, result):
        """Paper I Table II's spread was ~10%: the fixed blocks must stay
        close to the tuned optimum at the 1 MB cache they were tuned for."""
        at_1mb = [g for (_, l2), g in result.data["speedups"].items() if l2 == 1.0]
        assert at_1mb and all(g < 1.15 for g in at_1mb)

    def test_tuner_respects_l2_capacity(self, result):
        for (_, l2), (bm, bn, bk) in result.data["blocks"].items():
            assert bk * bn * 4 <= l2 * 1024 * 1024

    def test_bigger_cache_admits_bigger_panels(self, result):
        blocks = result.data["blocks"]
        for idx in {i for i, _ in blocks}:
            small, big = blocks[(idx, 1.0)], blocks[(idx, 64.0)]
            assert big[1] * big[2] >= small[1] * small[2]


class TestBlockAblation:
    def test_gains_exist_but_stay_small(self, result):
        """Re-tuning helps a little everywhere — blocking itself is the win."""
        gains = list(result.data["speedups"].values())
        assert all(1.0 <= g <= 1.35 for g in gains)
        assert max(gains) > 1.05

    def test_paper_blocks_recorded(self, result):
        assert result.data["paper_blocks"] == PAPER_BLOCKS == (16, 512, 128)
