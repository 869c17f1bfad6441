"""Paths inside the checkout and the benchmark's child processes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

#: The checkout root: the directory that holds ``perfbench/``.
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = ROOT / "perfbench"
#: Result files of every run (one JSON per run); ignored by git.
RESULTS = HERE / "results"
#: Sockets and other scratch files of a live run; ignored by git.
RUNDIR = HERE / ".run"


def child_env() -> dict[str, str]:
    """The environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # one compute thread per process: idle BLAS threads that spin would
    # add CPU time that depends on what else the machine runs
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("REPRO_FAULTS", None)
    return env


def run_child(script: str, args: list[str], timeout_s: float) -> tuple[float, dict]:
    """Run ``perfbench/<script>`` to completion; returns (spawn instant, result).

    The child prints one JSON object as its last stdout line.  The spawn
    instant is ``time.monotonic()``, which is system-wide on Linux, so a
    child's own ``monotonic()`` stamps are comparable with it.
    """
    cmd = [sys.executable, str(HERE / script), *args]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=timeout_s,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{script} {' '.join(args)} exited {proc.returncode}:\n"
            f"{proc.stderr[-4000:]}"
        )
    return spawned, json.loads(proc.stdout.strip().splitlines()[-1])


def emit(payload: dict) -> None:
    """A child's last stdout line: its result for :func:`run_child`."""
    sys.__stdout__.write(json.dumps(payload) + "\n")
    sys.__stdout__.flush()
