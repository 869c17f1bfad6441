"""Deterministic, seeded fault injection for chaos-testing the stack.

This package is the *fault plane*: a single place that decides — purely,
from ``(seed, site, token)`` hashes — which worker chunks crash or hang,
which disk-cache writes land corrupted or raise, which serving requests
see a predictor failure or an arrival burst, and when a checkpointed
campaign gets killed.  The engine, cache, serving layer and campaign
runner each ask the active plan at their fault sites; the resilience
machinery they wrap must then erase the injected faults, which the chaos
suite (``tests/test_chaos_engine.py``, ``tests/test_serving_degradation.py``)
asserts by demanding bit-identical results and bounded latency.

Activate a plan for a scope::

    from repro import faults

    with faults.inject("seed=42,worker.crash=1,cache.corrupt=0.1"):
        engine.evaluate_many(tasks)   # recovers; results bit-identical

or for a whole process tree via the environment::

    REPRO_FAULTS="seed=7,worker.hang=1" repro-experiments campaign

Every fault that fires is counted under ``faults.injected.<site>`` in
:mod:`repro.obs`.  See ``docs/ROBUSTNESS.md`` for the spec grammar and
the recovery semantics at each site.
"""

from __future__ import annotations

from repro.faults.injector import ENV_VAR, active_plan, inject, mark_injected
from repro.faults.plan import FaultPlan, parse_fault_spec

__all__ = [
    "ENV_VAR",
    "FaultPlan",
    "active_plan",
    "inject",
    "mark_injected",
    "parse_fault_spec",
]
