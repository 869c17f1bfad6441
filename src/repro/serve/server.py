"""The ``repro-serve`` asyncio server: NDJSON and HTTP over one port.

:class:`ServeApp` runs the batching core of :mod:`repro.serve.batcher`
(admission, per-shard micro-batches, SLO-accounted ledger) on the event
loop's clock, the same core the trace replay drives, and prices each
flush by reading the wall clock around the backend call.
:class:`AsyncServeServer` exposes it over a TCP port or a unix socket.
The transport sniffs the first line of each connection:

* an HTTP verb (``POST /v1/select``, ``GET /v1/health``,
  ``GET /v1/stats``) gets a one-shot ``HTTP/1.1`` response;
* anything else is treated as newline-delimited JSON — one
  :mod:`repro.serve.protocol` request per line, one response line each,
  pipelined (responses carry the request ``id``; lines on one
  connection are batched together when they arrive inside the
  micro-batch window).

``main()`` is the ``repro-serve`` console entry point.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

from repro import faults
from repro.engine.cache import MemoCache
from repro.engine.executor import EvaluationEngine
from repro.errors import ProtocolError, ReproError, ServeError
from repro.serve.batcher import MicroBatcher, TimedRequest
from repro.serve.middleware import ServingStats
from repro.serve.protocol import ServeRequest, ServeResponse, error_response
from repro.serve.router import InProcessReplica, ReplicaRouter
from repro.serve.service import FALLBACK_POLICIES, PredictionService

_HTTP_VERBS = (b"GET ", b"POST ", b"PUT ", b"DELETE ", b"HEAD ")

#: Largest HTTP body the server accepts; anything bigger is a 413.
MAX_BODY_BYTES = 1 << 20


def stats_dict(stats: ServingStats) -> dict:
    """The JSON shape of a run's serving statistics."""
    return {
        "requests": stats.n_requests,
        "shed": stats.shed,
        "offered": stats.offered,
        "shed_rate": stats.shed_rate,
        "fallbacks": stats.fallbacks,
        "slo_s": stats.slo_s,
        "slo_breaches": stats.slo_breaches,
        "mean_latency_s": stats.mean_latency,
        "p50_s": stats.p50,
        "p99_s": stats.p99,
        "throughput_rps": stats.throughput_rps,
    }


class ServeApp:
    """A :class:`MicroBatcher` over one backend, priced on the wall clock.

    The backend is either a single :class:`PredictionService` (one shard,
    one ``handle_batch`` per flush) or a
    :class:`~repro.serve.router.ReplicaRouter` pool, where requests shard
    on :meth:`~repro.serve.router.ReplicaRouter.shard_key` exactly as in
    :func:`~repro.serve.loadgen.routed_replay` and each shard's flush is
    one :meth:`~repro.serve.router.ReplicaRouter.route_live` call, so
    deadline budgets run from each request's arrival.
    """

    def __init__(
        self,
        service: PredictionService | ReplicaRouter,
        queue_limit: int | None = None,
        slo_s: float | None = None,
        max_batch: int = 32,
        max_wait_s: float = 0.002,
    ) -> None:
        self.service = service
        self.batcher = MicroBatcher(
            self._price,
            shard_key=(
                service.shard_key
                if isinstance(service, ReplicaRouter)
                else None
            ),
            queue_limit=queue_limit,
            slo_s=slo_s,
            max_batch=max_batch,
            max_wait_s=max_wait_s,
        )

    def _price(
        self, batch: list[TimedRequest], at: float
    ) -> list[tuple[ServeResponse, float, float]]:
        """Serve one flush; it starts and finishes when the wall clock says."""
        start = time.monotonic()  # the event loop's clock
        if isinstance(self.service, ReplicaRouter):
            outcomes = self.service.route_live(
                [(t.arrival, t.request) for t in batch], start
            )
            responses = [o.response for o in outcomes]
        else:
            responses = self.service.handle_batch([t.request for t in batch])
        finish = time.monotonic()
        return [
            (response, max(t.arrival, start), max(t.arrival, finish))
            for t, response in zip(batch, responses)
        ]

    def stats(self) -> ServingStats:
        servers = (
            len(self.service.replicas)
            if isinstance(self.service, ReplicaRouter)
            else 1
        )
        return self.batcher.core.ledger.stats(servers=servers)

    def snapshot(self) -> dict:
        payload = self.service.snapshot()
        payload["serving"] = stats_dict(self.stats())
        payload["queue_depth"] = self.batcher.core.admission.depth
        return payload


class AsyncServeServer:
    """NDJSON/HTTP transport for a :class:`ServeApp`."""

    def __init__(
        self,
        app: ServeApp,
        host: str = "127.0.0.1",
        port: int = 8377,
        unix_path: str | Path | None = None,
    ) -> None:
        self.app = app
        self.host = host
        self.port = port
        self.unix_path = Path(unix_path) if unix_path is not None else None
        self._server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        if self.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=str(self.unix_path)
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection, host=self.host, port=self.port
            )

    async def stop(self) -> None:
        await self.app.batcher.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def endpoint(self) -> str:
        if self.unix_path is not None:
            return f"unix:{self.unix_path}"
        return f"{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # ------------------------------------------------------------------ #
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            first = await reader.readline()
            if not first:
                return
            if first.startswith(_HTTP_VERBS):
                await self._serve_http(first, reader, writer)
            else:
                await self._serve_ndjson(first, reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    # ------------------------------------------------------------------ #
    # newline-delimited JSON
    # ------------------------------------------------------------------ #
    async def _serve_ndjson(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        lock = asyncio.Lock()
        tasks: list[asyncio.Task] = []

        async def answer(line: bytes) -> None:
            response = await self._answer_line(line)
            async with lock:
                writer.write(response.to_json().encode() + b"\n")
                await writer.drain()

        line = first
        while line:
            if line.strip():
                tasks.append(asyncio.ensure_future(answer(line)))
            line = await reader.readline()
        if tasks:
            await asyncio.gather(*tasks)

    async def _answer_line(self, line: bytes) -> ServeResponse:
        try:
            request = ServeRequest.from_json(line.decode())
        except (ProtocolError, UnicodeDecodeError) as exc:
            return error_response("", str(exc))
        return await self.app.batcher.submit(request)

    # ------------------------------------------------------------------ #
    # minimal HTTP/1.1
    # ------------------------------------------------------------------ #
    async def _serve_http(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            verb, path, _ = first.decode().split(None, 2)
        except ValueError:
            await self._http_reply(writer, 400, {"error": "bad request line"})
            return
        length = 0
        while True:
            header = await reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode().partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    await self._http_reply(
                        writer, 400, {"error": "bad content-length"}
                    )
                    return
        if length < 0:
            await self._http_reply(
                writer, 400, {"error": f"bad content-length {length}"}
            )
            return
        if length > MAX_BODY_BYTES:
            await self._http_reply(
                writer, 413,
                {"error": f"body too large ({length} > {MAX_BODY_BYTES} bytes)"},
            )
            return
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError:
            await self._http_reply(writer, 400, {"error": "truncated body"})
            return

        if verb == "GET" and path in ("/v1/health", "/healthz"):
            await self._http_reply(writer, 200, self._health_payload())
        elif verb == "GET" and path == "/v1/stats":
            await self._http_reply(writer, 200, self.app.snapshot())
        elif verb == "POST" and path == "/v1/select":
            await self._http_select(writer, body)
        elif verb == "POST" and path.startswith("/v1/replicas/"):
            await self._http_admin(writer, path)
        else:
            await self._http_reply(
                writer, 404, {"error": f"no route {verb} {path}"}
            )

    def _health_payload(self) -> dict:
        service = self.app.service
        if isinstance(service, ReplicaRouter):
            return service.health_summary()
        return {"status": "ok", "circuit_open": service.breaker.open}

    async def _http_admin(
        self, writer: asyncio.StreamWriter, path: str
    ) -> None:
        """``POST /v1/replicas/<name>/{drain,rejoin}`` — pool admin."""
        service = self.app.service
        if not isinstance(service, ReplicaRouter):
            await self._http_reply(
                writer, 404, {"error": "not serving a replica pool"}
            )
            return
        parts = path.strip("/").split("/")
        if len(parts) != 4 or parts[3] not in ("drain", "rejoin"):
            await self._http_reply(
                writer, 404, {"error": f"no route POST {path}"}
            )
            return
        name, action = parts[2], parts[3]
        try:
            if action == "drain":
                service.drain(name)
            else:
                service.rejoin(name, time.monotonic())
        except ServeError as exc:
            await self._http_reply(writer, 400, {"error": str(exc)})
            return
        await self._http_reply(
            writer, 200,
            {"replica": name, "state": service.health[name].state},
        )

    async def _http_select(
        self, writer: asyncio.StreamWriter, body: bytes
    ) -> None:
        try:
            payload = json.loads(body.decode())
        except (ValueError, UnicodeDecodeError) as exc:
            await self._http_reply(writer, 400, {"error": f"bad JSON: {exc}"})
            return
        batch = payload if isinstance(payload, list) else [payload]
        answers: list[ServeResponse | asyncio.Future] = []
        for item in batch:  # submit every item before awaiting any flush
            try:
                request = ServeRequest.from_dict(item)
            except ProtocolError as exc:
                answers.append(error_response("", str(exc)))
            else:
                answers.append(self.app.batcher.submit(request))
        out = [
            (a if isinstance(a, ServeResponse) else await a).to_dict()
            for a in answers
        ]
        await self._http_reply(
            writer, 200, out if isinstance(payload, list) else out[0]
        )

    @staticmethod
    async def _http_reply(
        writer: asyncio.StreamWriter, status: int, payload: object
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode()
        reason = {
            200: "OK",
            400: "Bad Request",
            404: "Not Found",
            413: "Payload Too Large",
        }.get(status, "OK")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode() + body)
        await writer.drain()


# ---------------------------------------------------------------------- #
# CLI
# ---------------------------------------------------------------------- #
def _build_one_service(
    args: argparse.Namespace, engine: EvaluationEngine, selector: object
) -> PredictionService:
    return PredictionService(
        engine=engine,
        selector=selector,  # type: ignore[arg-type]
        safe_algorithm=args.safe_algorithm,
        fallback_policy=args.fallback,
        max_selector_failures=args.max_selector_failures,
    )


def _build_backing(
    args: argparse.Namespace,
) -> tuple[EvaluationEngine, object]:
    """The engine (shared cache tiers) and trained selector, built once."""
    cache = MemoCache(
        disk_dir=Path(args.cache_dir) if args.cache_dir else None,
        sqlite_path=Path(args.sqlite_cache) if args.sqlite_cache else None,
    )
    engine = EvaluationEngine(cache=cache)
    selector = None
    if not args.no_predictor:
        from repro.selection.predictor import AlgorithmSelector

        selector = AlgorithmSelector(
            n_estimators=args.trees, random_state=args.seed
        ).fit()
    return engine, selector


def build_service(args: argparse.Namespace) -> PredictionService:
    """Assemble cache, engine, selector and service from CLI arguments."""
    engine, selector = _build_backing(args)
    return _build_one_service(args, engine, selector)


def build_router(args: argparse.Namespace) -> ReplicaRouter:
    """Assemble an N-replica pool behind one router from CLI arguments.

    Replicas share the engine (and its cache tiers) and the trained
    selector — each keeps its own selection memo, breaker and counters,
    which is the failure-isolation boundary the router manages.
    """
    engine, selector = _build_backing(args)
    replicas = [
        InProcessReplica(
            f"replica-{i}", _build_one_service(args, engine, selector)
        )
        for i in range(args.replicas)
    ]
    return ReplicaRouter(
        replicas,
        seed=args.router_seed,
        deadline_s=(
            args.deadline_ms / 1e3 if args.deadline_ms is not None else None
        ),
        max_retries=args.max_retries,
        hedge_after_s=(
            args.hedge_after_ms / 1e3
            if args.hedge_after_ms is not None
            else None
        ),
        probe_interval_s=(
            args.probe_interval_ms / 1e3
            if args.probe_interval_ms is not None
            else None
        ),
    )


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve algorithm-selection queries over NDJSON/HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8377)
    parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="serve on a unix socket instead of TCP",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="JSON disk tier for the memo cache",
    )
    parser.add_argument(
        "--sqlite-cache", default=None, metavar="DB",
        help="SQLite cross-process tier for the memo cache",
    )
    parser.add_argument("--queue-limit", type=int, default=256)
    parser.add_argument(
        "--slo-ms", type=float, default=None,
        help="latency SLO for breach accounting (milliseconds)",
    )
    parser.add_argument("--max-batch", type=int, default=32)
    parser.add_argument("--batch-wait-ms", type=float, default=2.0)
    parser.add_argument(
        "--fallback", choices=FALLBACK_POLICIES, default="safe"
    )
    parser.add_argument("--safe-algorithm", default="im2col_gemm6")
    parser.add_argument("--max-selector-failures", type=int, default=3)
    parser.add_argument(
        "--no-predictor", action="store_true",
        help="skip training; serve every request from the fallback path",
    )
    parser.add_argument("--trees", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--replicas", type=int, default=1, metavar="N",
        help="run N service replicas behind the health-aware router "
        "(1 = single service, no router)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None, metavar="MS",
        help="per-request deadline budget from arrival (router mode)",
    )
    parser.add_argument(
        "--hedge-after-ms", type=float, default=None, metavar="MS",
        help="hedge a second dispatch when the projected queue wait "
        "exceeds MS (router mode, priced replay)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="failed dispatches are retried on a different replica up "
        "to N times (router mode)",
    )
    parser.add_argument(
        "--probe-interval-ms", type=float, default=None, metavar="MS",
        help="active health-probe period per replica (router mode)",
    )
    parser.add_argument(
        "--router-seed", type=int, default=0,
        help="seed for the consistent-hash ring and recovery jitter",
    )
    return parser


async def _amain(args: argparse.Namespace) -> int:
    service: PredictionService | ReplicaRouter
    if args.replicas > 1:
        service = build_router(args)
    else:
        service = build_service(args)
    app = ServeApp(
        service,
        queue_limit=args.queue_limit,
        slo_s=args.slo_ms / 1e3 if args.slo_ms is not None else None,
        max_batch=args.max_batch,
        max_wait_s=args.batch_wait_ms / 1e3,
    )
    server = AsyncServeServer(
        app, host=args.host, port=args.port, unix_path=args.socket
    )
    await server.start()
    print(f"repro-serve listening on {server.endpoint}", file=sys.stderr)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:  # pragma: no cover - shutdown path
        pass
    finally:
        await server.stop()
    return 0


def main(argv: list[str] | None = None) -> int:
    """``repro-serve`` entry point (exit codes match repro-experiments)."""
    from repro.experiments.cli import ERROR_EXIT_CODES

    args = _parser().parse_args(argv)
    try:
        faults.active_plan()  # fail fast on a malformed REPRO_FAULTS
        if args.queue_limit is not None and args.queue_limit < 0:
            raise ServeError(
                f"--queue-limit must be >= 0, got {args.queue_limit}"
            )
        if args.replicas < 1:
            raise ServeError(f"--replicas must be >= 1, got {args.replicas}")
        return asyncio.run(_amain(args))
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except ReproError as exc:
        line = str(exc).splitlines()[0] if str(exc) else "(no detail)"
        print(f"error [{type(exc).__name__}]: {line}", file=sys.stderr)
        for cls, code in ERROR_EXIT_CODES:
            if isinstance(exc, cls):
                return code
        return 10


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
