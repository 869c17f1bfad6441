"""Workloads ``serve-hot`` and ``serve-cold``: a live ``repro-serve`` socket.

A fresh ``repro-serve --socket`` process with default flags is driven by
this process over one pipelined NDJSON connection, from one thread.
Each run has four phases, in order:

* warm-up: ``serve-hot`` sends every payload cell once; ``serve-cold``
  sends ``COLD_WARMUP`` cells;
* ``ROUNDS`` rounds, each of three parts:

  - ``c1``: closed loop, one request in flight; ``C1_PER_SECOND``
    requests per second of ``--seconds`` over all rounds;
  - ``c32``: closed loop, 32 requests in flight; a fixed request count;
  - ``open``: open loop, Poisson arrivals at a fixed rate, 35% of
    ``--seconds`` over all rounds; requests go out at their due time
    whatever the replies, and latency is timed from the due time.

The gated figure is ``cpu_ms``, the median over c1 requests of the
server's CPU time between sending the request and reading its reply.
``p50_ms`` (the median c1 latency), ``wall_s`` (the c1 job: ``ROUNDS``
times the median round time), ``p90_ms`` (the median of the rounds'
p90s, so a slow spell moves one round, not the figure), the c32 rate and
the open-loop figures are printed but not gated: on a shared 2-core
machine their run-to-run spread reaches the largest bound the benchmark
may set (the c1 latency of runs of the same code spread by up to a third
of its median, and c32 chunk rates vary by a factor of two within one
run).

``serve-hot`` draws payloads from ``repro.serve.loadgen.default_workload``
(26 cells), so after warm-up every request hits the selection memo and
the engine cache.  ``serve-cold`` walks a seeded permutation of ~80k
cells, so every phase sends cells no earlier phase sent and nearly every
request costs a forest predict and an analytical evaluation.
"""

from __future__ import annotations

import itertools
import json
import os
import select
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterator

import proc
from layers import put_layers
from spans import END, NAME, RID, START, layer_table
from stats import Outcome, percentile, read_cpu_ns, read_peak_rss_mib

SETUP_SPAWNS = 5
ROUNDS = 16
CONCURRENCY = 32
OPEN_RATE_RPS = {"serve-hot": 1500.0, "serve-cold": 300.0}
C32_REQUESTS = {"serve-hot": 6000, "serve-cold": 2000}
C1_PER_SECOND = {"serve-hot": 100, "serve-cold": 50}
OPEN_SHARE = 0.35
SLO_MS = 25.0
COLD_WARMUP = 256
COLD_CHECKED = 256
RESPONSE_TIMEOUT_S = 30.0
#: The fields a response must share with the in-process reference.
CHECKED_FIELDS = ("status", "algorithm", "served_by", "cycles", "seconds",
                  "dram_bytes")
LAYER_METRICS = ("serve.selection_memo.hit_ratio", "engine.cache.hit_ratio",
                 "serve.shed", "loadgen.late_ms_p99", "serve.outside_ms")

# the serve-cold cell space: 9 * 9 * 9 * 4 * 4 * 7 = 81648 cells
CHANNELS = (8, 16, 24, 32, 48, 64, 96, 128, 192)
SIZES = (7, 14, 21, 28, 42, 56, 84, 112, 168)
KERNELS = ((1, 1), (1, 2), (3, 1), (3, 2))  # (kernel size, stride)
VLENS = (512, 1024, 2048, 4096)
L2_MIB = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
COLD_SPACE = (len(CHANNELS) ** 2 * len(SIZES) * len(KERNELS) * len(VLENS)
              * len(L2_MIB))


def cold_cell(index: int) -> dict:
    """Cell ``index`` of the cold space (mixed-radix decode)."""
    index, l2 = divmod(index, len(L2_MIB))
    index, vlen = divmod(index, len(VLENS))
    index, kernel = divmod(index, len(KERNELS))
    index, size = divmod(index, len(SIZES))
    ic, oc = divmod(index, len(CHANNELS))
    k, stride = KERNELS[kernel]
    return {
        "layer": {"ic": CHANNELS[ic], "oc": CHANNELS[oc], "ih": SIZES[size],
                  "iw": SIZES[size], "kh": k, "kw": k, "stride": stride},
        "hw": {"vlen_bits": VLENS[vlen], "l2_mib": L2_MIB[l2]},
    }


def hot_cells() -> list[dict]:
    """The default loadgen pool as wire payloads (without ids)."""
    from repro.serve.loadgen import default_workload
    from repro.serve.protocol import ServeRequest

    cells = []
    for spec, hw in default_workload():
        payload = ServeRequest(spec=spec, hw=hw).to_dict()
        del payload["id"]
        cells.append(payload)
    return cells


def cell_key(cell: dict) -> str:
    return json.dumps(cell, sort_keys=True)


class Traffic:
    """The seeded payload stream of one run; tracks repeated cells."""

    def __init__(self, workload: str, seed: int) -> None:
        import numpy as np

        self.rng = np.random.default_rng(seed)
        self.hot = workload == "serve-hot"
        if self.hot:
            self.pool = hot_cells()
        else:
            self.order = self.rng.permutation(COLD_SPACE)
            self.pos = 0
        self.seen: set[str] = set()
        self.taken = 0
        self.repeats = 0

    def warmup(self) -> list[dict]:
        return list(self.pool) if self.hot else self.take(COLD_WARMUP)

    def take(self, n: int) -> list[dict]:
        if self.hot:
            cells = [self.pool[i] for i in self.rng.integers(0, len(self.pool), n)]
        else:
            idx = [int(self.order[(self.pos + i) % COLD_SPACE]) for i in range(n)]
            self.pos += n
            cells = [cold_cell(i) for i in idx]
        for cell in cells:
            key = cell_key(cell)
            self.repeats += key in self.seen
            self.seen.add(key)
        self.taken += len(cells)
        return cells

    def schedule(self, rate_rps: float, duration_s: float) -> list[float]:
        """Poisson due times (seconds from the phase start) inside the phase."""
        n = int(rate_rps * duration_s * 1.5) + 16
        due = self.rng.exponential(1.0 / rate_rps, n).cumsum()
        return [float(t) for t in due if t < duration_s]


def _line(rid: str, cell: dict) -> bytes:
    return (json.dumps({"id": rid, **cell}) + "\n").encode()


class Client:
    """One NDJSON connection, used from a single thread."""

    def __init__(self, path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""

    def close(self) -> None:
        self.sock.close()

    def send(self, data: bytes) -> None:
        self.sock.sendall(data)

    def recv_lines(self, timeout: float) -> list[bytes]:
        """Complete response lines, waiting at most ``timeout`` for data."""
        if b"\n" not in self.buf:
            ready, _, _ = select.select([self.sock], [], [], max(timeout, 0.0))
            if not ready:
                return []
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buf += chunk
        *lines, self.buf = self.buf.split(b"\n")
        return lines


Results = dict[str, tuple[float, dict]]  # rid -> (latency s, response)


def closed_loop(
    client: Client,
    items: Iterator[tuple[str, bytes]],
    concurrency: int,
    stop_at: float | None = None,
) -> Results:
    """Keep ``concurrency`` requests in flight until items or time run out."""
    sent_at: dict[str, float] = {}
    results: Results = {}

    def send_next() -> None:
        if stop_at is not None and time.perf_counter() >= stop_at:
            return
        item = next(items, None)
        if item is not None:
            sent_at[item[0]] = time.perf_counter()
            client.send(item[1])

    for _ in range(concurrency):
        send_next()
    while sent_at:
        lines = client.recv_lines(RESPONSE_TIMEOUT_S)
        if not lines:
            raise TimeoutError(f"{len(sent_at)} requests unanswered")
        now = time.perf_counter()
        for line in lines:
            response = json.loads(line)
            results[response["id"]] = (now - sent_at.pop(response["id"]), response)
            send_next()
    return results


def open_loop(
    client: Client, items: list[tuple[str, bytes]], due: list[float]
) -> tuple[Results, list[float]]:
    """Send each item at its due time; returns results and send lateness."""
    start = time.perf_counter()
    due_at: dict[str, float] = {}
    results: Results = {}
    lateness: list[float] = []
    i = 0
    while i < len(items) or due_at:
        now = time.perf_counter()
        while i < len(items) and start + due[i] <= now:
            rid, line = items[i]
            due_at[rid] = start + due[i]
            client.send(line)
            lateness.append(time.perf_counter() - due_at[rid])
            i += 1
        wait = start + due[i] - time.perf_counter() if i < len(items) else (
            RESPONSE_TIMEOUT_S)
        lines = client.recv_lines(wait)
        if not lines and i >= len(items):
            raise TimeoutError(f"{len(due_at)} requests unanswered")
        now = time.perf_counter()
        for line in lines:
            response = json.loads(line)
            results[response["id"]] = (now - due_at.pop(response["id"]), response)
    return results, lateness


class Server:
    """A ``repro-serve`` process on a unix socket inside the checkout."""

    _count = itertools.count()

    def __init__(self, spans: Path | None = None) -> None:
        name = f"s{os.getpid()}-{next(self._count)}.sock"
        self.sock_file = proc.RUNDIR / name
        # a relative path keeps the address under the unix socket length limit
        self.address = os.path.relpath(self.sock_file)
        if spans is None:
            cmd = [sys.executable, "-m", "repro.serve"]
        else:
            cmd = [sys.executable, str(proc.HERE / "serve_launcher.py"),
                   "--spans", str(spans), "--"]
        self.cmd = cmd + ["--socket", name]
        self.log = proc.RUNDIR / f"{name}.log"
        self.proc: subprocess.Popen | None = None

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> float:
        """Spawn the server; seconds until its socket accepts."""
        proc.RUNDIR.mkdir(parents=True, exist_ok=True)
        self.sock_file.unlink(missing_ok=True)
        with open(self.log, "w") as log:
            spawned = time.monotonic()
            self.proc = subprocess.Popen(
                self.cmd, cwd=proc.RUNDIR, env=proc.child_env(),
                stdout=log, stderr=subprocess.STDOUT,
            )
        while time.monotonic() - spawned < 120:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited:\n{self.log.read_text()[-4000:]}")
            try:
                with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
                    probe.connect(self.address)
                return time.monotonic() - spawned
            except (FileNotFoundError, ConnectionRefusedError):
                time.sleep(0.002)
        raise TimeoutError("server did not accept within 120 s")

    def stats(self) -> dict:
        """``GET /v1/stats`` over its own connection."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as conn:
            conn.connect(self.address)
            conn.sendall(b"GET /v1/stats HTTP/1.1\r\nHost: bench\r\n\r\n")
            data = b""
            while chunk := conn.recv(1 << 16):
                data += chunk
        return json.loads(data.split(b"\r\n\r\n", 1)[1])

    def peak_rss_mib(self) -> float:
        assert self.proc is not None
        return read_peak_rss_mib(self.proc.pid)

    def cpu_ns(self) -> int:
        assert self.proc is not None
        return read_cpu_ns(self.proc.pid)

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then wait for the exit."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.sock_file.unlink(missing_ok=True)
        self.log.unlink(missing_ok=True)  # start() reports it on failure


def drive(server: Server, workload: str, traffic: Traffic, seconds: float) -> dict:
    """Warm up, then run the rounds of c1, c32 and open-loop traffic."""
    client = Client(server.address)
    try:
        run: dict = {"cells": {}}

        def tagged(phase: str, cells: list[dict]) -> list[tuple[str, bytes]]:
            items = []
            for i, cell in enumerate(cells):
                rid = f"{phase}-{i}"
                run["cells"][rid] = cell
                items.append((rid, _line(rid, cell)))
            return items

        def lazy(phase: str) -> Iterator[tuple[str, bytes]]:
            for i in itertools.count():
                cell = traffic.take(1)[0]
                rid = f"{phase}-{i}"
                run["cells"][rid] = cell
                yield rid, _line(rid, cell)

        run["warmup"] = closed_loop(client, iter(tagged("w", traffic.warmup())),
                                    CONCURRENCY)
        before = server.stats()
        # the repeat share counts measured requests; warm-up cells stay seen
        traffic.taken = traffic.repeats = 0

        # the phases take turns round by round, so a slow spell of the
        # machine touches all three and the medians over rounds step over it
        c1_items = lazy("c1")
        per_round = max(1, round(C1_PER_SECOND[workload] * seconds / ROUNDS))
        open_s = OPEN_SHARE * seconds / ROUNDS
        run.update(c1={}, c32={}, open={}, lateness=[], c1_rounds=[],
                   c1_cpu_ms=[], c1_p90s=[], c32_chunks=[],
                   open_s=OPEN_SHARE * seconds)
        for r in range(ROUNDS):
            start = time.perf_counter()
            part: Results = {}
            for item in itertools.islice(c1_items, per_round):
                # one request in flight: the server's CPU time between
                # send and reply is this request's
                cpu = server.cpu_ns()
                part.update(closed_loop(client, iter([item]), 1))
                run["c1_cpu_ms"].append((server.cpu_ns() - cpu) / 1e6)
            run["c1_rounds"].append(time.perf_counter() - start)
            run["c1"].update(part)
            run["c1_p90s"].append(
                percentile([lat * 1e3 for lat, _ in part.values()], 90)[0])

            items = tagged(f"c32.{r}",
                           traffic.take(C32_REQUESTS[workload] // ROUNDS))
            start = time.perf_counter()
            run["c32"].update(closed_loop(client, iter(items), CONCURRENCY))
            run["c32_chunks"].append(time.perf_counter() - start)

            due = traffic.schedule(OPEN_RATE_RPS[workload], open_s)
            items = tagged(f"open.{r}", traffic.take(len(due)))
            part, lateness = open_loop(client, items, due)
            run["open"].update(part)
            run["lateness"] += lateness

        after = server.stats()
        run["peak_rss_mib"] = server.peak_rss_mib()
    finally:
        client.close()
    run["repeat_share"] = traffic.repeats / traffic.taken
    served = after["served"] - before["served"]
    run["memo_hit_ratio"] = 1.0 - (
        after["selection_cache_entries"] - before["selection_cache_entries"]
    ) / served
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    run["engine_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return run


def reference(cells: list[dict]) -> dict[str, dict]:
    """Responses of an in-process service built as ``repro-serve`` builds it."""
    from repro.engine.cache import MemoCache
    from repro.engine.executor import EvaluationEngine
    from repro.selection.predictor import AlgorithmSelector
    from repro.serve.protocol import ServeRequest
    from repro.serve.service import PredictionService

    service = PredictionService(
        engine=EvaluationEngine(cache=MemoCache()),
        selector=AlgorithmSelector(n_estimators=60, random_state=0).fit(),
    )
    keys = sorted({cell_key(c) for c in cells})
    out = {}
    for i in range(0, len(keys), CONCURRENCY):
        chunk = keys[i:i + CONCURRENCY]
        requests = [ServeRequest.from_dict({"id": k, **json.loads(k)}) for k in chunk]
        for key, response in zip(chunk, service.handle_batch(requests)):
            out[key] = response.to_dict()
    return out


def _phase_counts(results: Results) -> str:
    statuses = [r["status"] for _, r in results.values()]
    return (f"sent {len(statuses)} ok {statuses.count('ok')} "
            f"shed {statuses.count('shed')} "
            f"error {len(statuses) - statuses.count('ok') - statuses.count('shed')}")


def _server_ms(spans: list[list]) -> dict[str, float]:
    """Per request id: ms inside named server spans (parse, wait, batch, encode)."""
    per: dict[str, float] = {}
    for span in spans:
        if span[RID] is None:
            continue
        ms = (span[END] - span[START]) / 1e6
        rids = span[RID].split(" ") if span[NAME] == "serve.handle_batch" else [
            span[RID]]
        for rid in rids:
            per[rid] = per.get(rid, 0.0) + ms
    return per


def measure(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    setups = []
    for _ in range(SETUP_SPAWNS - 1):
        with Server() as probe:
            setups.append(probe.start())
    traffic = Traffic(workload, seed)
    with Server() as server:
        setups.append(server.start())
        run = drive(server, workload, traffic, seconds)

    phases = ("warmup", "c1", "c32", "open")
    responses = [(rid, r) for p in phases for rid, (_, r) in run[p].items()]
    checked_cells = [run["cells"][rid] for rid, _ in responses]
    if not traffic.hot:
        pick = traffic.rng.choice(len(checked_cells), COLD_CHECKED, replace=False)
        checked_cells = [checked_cells[int(i)] for i in pick]
    want = reference(checked_cells)
    out.attempted = len(responses)
    for rid, response in responses:
        expected = want.get(cell_key(run["cells"][rid]))
        bad = response["status"] != "ok" or (
            expected is not None
            and any(response[f] != expected[f] for f in CHECKED_FIELDS))
        out.failed += bad

    c1 = [lat * 1e3 for lat, _ in run["c1"].values()]
    opened = [lat * 1e3 for lat, _ in run["open"].values()]
    c1_s = ROUNDS * statistics.median(run["c1_rounds"])
    out.put("setup_s", statistics.median(setups), "s", len(setups))
    out.put("wall_s", c1_s, "s", len(run["c1"]))
    out.put_percentiles("", c1)
    out.put("p90_ms", statistics.median(run["c1_p90s"]), "ms", len(c1))
    value, n = percentile(run["c1_cpu_ms"], 50)
    out.put("cpu_ms", value, "ms", n)
    out.put("peak_rss_mib", run["peak_rss_mib"], "MiB", 1)
    out.put_percentiles("_open", opened)
    within = sum(lat <= SLO_MS / 1e3 and r["status"] == "ok"
                 for lat, r in run["open"].values())
    out.put("slo_frac_open", within / len(run["open"]), "frac", len(run["open"]))
    ok32 = sum(r["status"] == "ok" for _, r in run["c32"].values())
    out.put("rps_c32", ok32 / sum(run["c32_chunks"]), "1/s", len(run["c32"]))
    out.put("rps_c1", len(run["c1"]) / sum(run["c1_rounds"]), "1/s", len(run["c1"]))
    late, n = percentile([t * 1e3 for t in run["lateness"]], 99)
    out.put("loadgen.late_ms_p99", late, "ms", n)
    out.put("repeat_share", run["repeat_share"], "frac", traffic.taken)
    out.put("serve.selection_memo.hit_ratio", run["memo_hit_ratio"], "frac", 1)
    out.put("engine.cache.hit_ratio", run["engine_hit_ratio"], "frac", 1)
    out.put("serve.shed", sum(r["status"] == "shed" for _, r in responses),
            "count", 1)
    out.put("failed_frac", out.failed / out.attempted, "frac", out.attempted)
    out.notes += [
        f"warmup: closed loop, {CONCURRENCY} in flight: "
        f"{_phase_counts(run['warmup'])}",
        f"c1: closed loop, 1 in flight, {ROUNDS} rounds: "
        f"{_phase_counts(run['c1'])}",
        f"open: open loop, Poisson {OPEN_RATE_RPS[workload]:g} rps, "
        f"{run['open_s']:.1f} s in {ROUNDS} windows: {_phase_counts(run['open'])}",
        f"c32: closed loop, {CONCURRENCY} in flight, "
        f"{C32_REQUESTS[workload]} requests in {ROUNDS} chunks: "
        f"{_phase_counts(run['c32'])}",
        f"checked {len(want)} distinct cells against an in-process "
        f"PredictionService (--trees 60 --seed 0)",
    ]

    if traced:
        spans_path = proc.RESULTS / f"spans-{workload}-{seed}.json"
        with Server(spans=spans_path) as server:
            server.start()
            trun = drive(server, workload, Traffic(workload, seed), seconds)
        spans = json.loads(spans_path.read_text())["spans"]
        put_layers(out, layer_table(spans))
        waits = [(span[END] - span[START]) / 1e6 for span in spans
                 if span[NAME] == "serve.batch_wait" and span[RID] in trun["c1"]]
        value, n = percentile(waits, 50)
        out.put("serve.batch_wait_ms", value, "ms", n)  # median over c1 requests
        inside = _server_ms(spans)
        outside = [lat * 1e3 - inside.get(rid, 0.0)
                   for rid, (lat, _) in trun["c1"].items()]
        value, n = percentile(outside, 50)
        out.put("serve.outside_ms", value, "ms", n)
        traced_s = ROUNDS * statistics.median(trun["c1_rounds"])
        out.put("trace_overhead_frac", traced_s / c1_s - 1.0, "frac", 1)
        out.notes.append(f"spans written to {spans_path.relative_to(proc.ROOT)}")
    return out
