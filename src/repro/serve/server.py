"""The arbitration service: asyncio HTTP server over the session core.

Architecture (``docs/serving.md`` has the full picture):

* **Admission control** — every session-touching request becomes a job on
  one bounded queue.  A full queue sheds the request immediately with
  ``429`` instead of letting latency collapse for everyone
  (``serve.shed`` counts the victims).  ``/healthz`` and ``/metrics``
  bypass the queue so the server stays observable under overload.
* **Work-conserving batching** — a single batcher task hands each job
  to the worker as soon as it is free, together with whatever queued up
  behind it (at most ``batch_max`` jobs), so batches form only under
  load and a lone request never waits.  A batch runs its jobs in
  arrival order as one executor call on a single worker thread: a call
  per job would pay an executor hop and an event-loop wake-up per job,
  which costs throughput under load.  One worker means session state
  needs no locks: the event loop only parses, frames, and awaits
  futures.
* **Persistence** — with a store configured, every mutating query is
  made durable (its change record appended and fsynced to the session's
  file, :mod:`repro.serve.store`) before it is answered; an unknown id
  is loaded from the store on first touch, so a restarted server resumes
  exactly where the files say (byte-identically — the restart tests pin
  it).

All ``serve.*`` metrics flow through the ambient :mod:`repro.obs`
session; the server never forces observability on (``run_server`` — the
CLI path — does enable it so ``/metrics`` is live out of the box).
"""

from __future__ import annotations

import asyncio
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Optional, TextIO

from repro import obs
from repro.errors import ReproError
from repro.serve.protocol import (
    HttpRequest,
    ProtocolError,
    read_request,
    render_response,
)
from repro.serve.store import SessionStore
from repro.session import (
    AUTO,
    ContextRegistry,
    Session,
    WeightedSession,
    default_registry,
)
from repro.session.session import validate_session_id

__all__ = ["ServeConfig", "ArbitrationServer", "run_server"]

#: Boolean-session query verbs (weighted sessions support a subset plus
#: per-source weights).
_BOOLEAN_OPS = (
    "revise",
    "update",
    "fit",
    "arbitrate",
    "merge",
    "contract",
    "ask",
)
_WEIGHTED_OPS = ("fit", "arbitrate", "merge", "ask")


def _as_weight(value: Any) -> Optional[int]:
    """Coerce a client-supplied weight to ``int``; ``None`` if malformed."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: 1e999
        return None


@dataclass
class ServeConfig:
    """Tunables of one server instance."""

    host: str = "127.0.0.1"
    port: int = 8423
    store_dir: Optional[str] = None
    #: Admission bound: jobs queued beyond this are shed with 429.
    queue_limit: int = 256
    #: Hard cap on jobs per batch.  Batches take only jobs already
    #: queued when the worker frees up; there is no wait for more.
    batch_max: int = 32
    #: Default ``impl`` for sessions that do not choose one.
    impl: str = AUTO


@dataclass
class _Job:
    """One queued unit of session work."""

    kind: str  # "create" | "state" | "query" | "delete"
    session_id: Optional[str]
    body: dict[str, Any]
    future: "asyncio.Future[tuple[int, dict[str, Any]]]"
    enqueued_at: float = field(default_factory=time.perf_counter)


class ArbitrationServer:
    """Asyncio HTTP/JSON server exposing theory-change sessions."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        registry: Optional[ContextRegistry] = None,
    ):
        self.config = config or ServeConfig()
        self.registry = registry if registry is not None else default_registry()
        self.store: Optional[SessionStore] = (
            SessionStore(self.config.store_dir) if self.config.store_dir else None
        )
        self._sessions: dict[str, Any] = {}
        self._queue: Optional[asyncio.Queue] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._batcher_task: Optional[asyncio.Task] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        self._stopping = False
        self.host = self.config.host
        self.port = self.config.port

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "ArbitrationServer":
        self._queue = asyncio.Queue(maxsize=self.config.queue_limit)
        # One worker serializes all session mutation — no locks.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._server = await asyncio.start_server(
            self._handle_conn, self.config.host, self.config.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.host, self.port = sockets[0].getsockname()[:2]
        self._batcher_task = asyncio.create_task(self._batcher())
        return self

    async def stop(self) -> None:
        """Stop accepting, finish queued work, release the worker."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._queue is not None and self._batcher_task is not None:
            if not self._batcher_task.done():
                try:
                    # Wake the batcher with the shutdown sentinel; a full
                    # queue means nothing is draining it, so cancel instead.
                    self._queue.put_nowait(None)
                except asyncio.QueueFull:
                    self._batcher_task.cancel()
            try:
                await self._batcher_task
            except asyncio.CancelledError:
                pass
            while not self._queue.empty():  # jobs the batcher never reached
                job = self._queue.get_nowait()
                if job is not None and not job.future.done():
                    job.future.set_result(
                        (503, {"ok": False, "error": "server shutting down"})
                    )
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    @property
    def sessions_active(self) -> int:
        return len(self._sessions)

    # -- connection handling ------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except ProtocolError as error:
                    writer.write(
                        render_response(
                            error.status,
                            {"ok": False, "error": str(error)},
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                frame, keep_alive = await self._route(request)
                writer.write(frame)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, TimeoutError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _route(self, request: HttpRequest) -> tuple[bytes, bool]:
        registry = obs.active()
        if registry is not None:
            registry.counter("serve.requests").inc()
        started = time.perf_counter()
        status, payload = await self._dispatch(request)
        if registry is not None:
            registry.histogram("serve.request_seconds").observe(
                time.perf_counter() - started
            )
            if status >= 500:
                registry.counter("serve.errors").inc()
        return render_response(status, payload, request.keep_alive), (
            request.keep_alive
        )

    async def _dispatch(
        self, request: HttpRequest
    ) -> tuple[int, dict[str, Any]]:
        parts = [part for part in request.path.split("?")[0].split("/") if part]
        method = request.method
        if parts == ["healthz"]:
            if method != "GET":
                return 405, {"ok": False, "error": "healthz is GET-only"}
            return 200, {
                "ok": True,
                "sessions": len(self._sessions),
                "queue_depth": self._queue.qsize() if self._queue else 0,
                "store": self.store.root if self.store else None,
            }
        if parts == ["metrics"]:
            if method != "GET":
                return 405, {"ok": False, "error": "metrics is GET-only"}
            if obs.active() is None:
                return 503, {"ok": False, "error": "observability disabled"}
            return 200, obs.metrics_payload()
        if not parts or parts[0] != "v1" or len(parts) < 2 or parts[1] != "sessions":
            return 404, {"ok": False, "error": f"no such endpoint: {request.path}"}
        try:
            body = request.json()
        except ProtocolError as error:
            return error.status, {"ok": False, "error": str(error)}
        if len(parts) == 2:
            if method != "POST":
                return 405, {"ok": False, "error": "use POST to create sessions"}
            return await self._enqueue("create", None, body)
        session_id = parts[2]
        if len(parts) == 3:
            if method == "GET":
                return await self._enqueue("state", session_id, body)
            if method == "DELETE":
                return await self._enqueue("delete", session_id, body)
            return 405, {"ok": False, "error": "use GET or DELETE on a session"}
        if len(parts) == 4 and parts[3] == "query":
            if method != "POST":
                return 405, {"ok": False, "error": "use POST to query"}
            return await self._enqueue("query", session_id, body)
        return 404, {"ok": False, "error": f"no such endpoint: {request.path}"}

    async def _enqueue(
        self, kind: str, session_id: Optional[str], body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        """Admission control: queue the job or shed it with 429."""
        assert self._queue is not None
        if self._stopping:
            return 503, {"ok": False, "error": "server shutting down"}
        loop = asyncio.get_running_loop()
        job = _Job(kind=kind, session_id=session_id, body=body, future=loop.create_future())
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            registry = obs.active()
            if registry is not None:
                registry.counter("serve.shed").inc()
            return 429, {
                "ok": False,
                "error": "server overloaded; retry later",
                "shed": True,
            }
        registry = obs.active()
        if registry is not None:
            registry.counter("serve.queries").inc()
            registry.gauge("serve.queue_depth").set(self._queue.qsize())
        return await job.future

    # -- batching -----------------------------------------------------------

    async def _batcher(self) -> None:
        """Hand queued jobs to the worker in arrival-ordered batches.

        Work-conserving: once the first job is in hand, the batch takes
        only the jobs already queued behind it and leaves at once.  Jobs
        run one at a time on the single worker, so waiting for more
        could only leave that worker idle; batches form from the jobs
        that arrived while the previous batch ran.
        """
        assert self._queue is not None
        while True:
            job = await self._queue.get()
            if job is None:
                return
            batch = [job]
            try:
                drained = False
                while len(batch) < self.config.batch_max and not self._queue.empty():
                    item = self._queue.get_nowait()
                    if item is None:
                        drained = True
                        break
                    batch.append(item)
                try:
                    await self._run_batch(batch)
                except Exception as error:  # never let the batcher die
                    registry = obs.active()
                    if registry is not None:
                        registry.counter("serve.errors").inc()
                    for item in batch:
                        if not item.future.done():
                            item.future.set_result(
                                (
                                    500,
                                    {"ok": False, "error": f"internal error: {error}"},
                                )
                            )
            except asyncio.CancelledError:
                # stop()'s full-queue fallback cancels us mid-batch; jobs
                # already picked up are no longer in the queue for stop()
                # to drain, so fail them here instead of leaving their
                # connection handlers awaiting futures forever.
                for item in batch:
                    if not item.future.done():
                        item.future.set_result(
                            (503, {"ok": False, "error": "server shutting down"})
                        )
                raise
            if drained:
                return

    async def _run_batch(self, batch: list[_Job]) -> None:
        assert self._executor is not None
        loop = asyncio.get_running_loop()
        registry = obs.active()
        if registry is not None:
            registry.counter("serve.batches").inc()
            registry.histogram("serve.batch_size").observe(len(batch))
            registry.gauge("serve.queue_depth").set(self._queue.qsize())
        try:
            results = await loop.run_in_executor(
                self._executor, self._process_jobs, batch
            )
        except Exception as error:  # worker died — fail the whole batch
            for job in batch:
                if not job.future.done():
                    job.future.set_result(
                        (500, {"ok": False, "error": f"internal error: {error}"})
                    )
            return
        for job, result in zip(batch, results):
            if not job.future.done():
                job.future.set_result(result)

    # -- job execution (worker thread) --------------------------------------

    def _process_jobs(self, jobs: list[_Job]) -> list[tuple[int, dict[str, Any]]]:
        results = []
        registry = obs.active()
        with obs.span("serve.batch", size=len(jobs)):
            for job in jobs:
                if registry is not None:
                    registry.histogram("serve.queue_wait_seconds").observe(
                        time.perf_counter() - job.enqueued_at
                    )
                try:
                    with obs.span("serve.job", kind=job.kind):
                        results.append(self._process_job(job))
                except ReproError as error:
                    results.append((400, {"ok": False, "error": str(error)}))
                except Exception as error:  # keep the worker alive
                    if registry is not None:
                        registry.counter("serve.errors").inc()
                    results.append(
                        (500, {"ok": False, "error": f"internal error: {error}"})
                    )
        return results

    def _process_job(self, job: _Job) -> tuple[int, dict[str, Any]]:
        if job.kind == "create":
            return self._do_create(job.body)
        if job.kind == "state":
            session = self._get_session(job.session_id)
            if session is None:
                return 404, {
                    "ok": False,
                    "error": f"unknown session {job.session_id!r}",
                }
            return 200, {"ok": True, "session": session.state()}
        if job.kind == "delete":
            return self._do_delete(job.session_id)
        if job.kind == "query":
            return self._do_query(job.session_id, job.body)
        return 400, {"ok": False, "error": f"unknown job kind {job.kind!r}"}

    def _get_session(self, session_id: str):
        """In-memory lookup with load-on-first-touch from the store."""
        session = self._sessions.get(session_id)
        if session is not None:
            return session
        if self.store is None:
            return None
        session = self.store.load(session_id, registry=self.registry)
        if session is not None:
            self._sessions[session_id] = session
            registry = obs.active()
            if registry is not None:
                registry.counter("serve.sessions_loaded").inc()
                registry.gauge("serve.sessions_active").set(len(self._sessions))
        return session

    def _do_create(self, body: dict[str, Any]) -> tuple[int, dict[str, Any]]:
        session_id = body.get("id")
        if not session_id:
            return 400, {"ok": False, "error": "create needs an 'id'"}
        validate_session_id(session_id)  # before hashing it below
        atoms = body.get("atoms")
        if not atoms or not isinstance(atoms, list):
            return 400, {"ok": False, "error": "create needs a non-empty 'atoms' list"}
        if session_id in self._sessions or (
            self.store is not None and self.store.exists(session_id)
        ):
            return 409, {
                "ok": False,
                "error": f"session {session_id!r} already exists",
            }
        formula = body.get("formula", "true")
        if body.get("weighted"):
            weight = _as_weight(body.get("weight", 1))
            if weight is None:
                return 400, {"ok": False, "error": "'weight' must be an integer"}
            session = WeightedSession(
                session_id,
                atoms=atoms,
                formula=formula,
                weight=weight,
            )
        else:
            session = Session(
                session_id,
                atoms=atoms,
                formula=formula,
                operators=body.get("operators"),
                impl=body.get("impl", self.config.impl),
                registry=self.registry,
            )
        self._sessions[session_id] = session
        try:
            self._snapshot(session)
        except Exception as error:
            # No durable snapshot exists: undo the creation so memory and
            # store agree (a retry can recreate once the store recovers).
            self._sessions.pop(session_id, None)
            registry = obs.active()
            if registry is not None:
                registry.counter("serve.snapshot_failures").inc()
            return 500, {
                "ok": False,
                "error": f"persistence failed; session not created: {error}",
            }
        registry = obs.active()
        if registry is not None:
            registry.counter("serve.sessions_created").inc()
            registry.gauge("serve.sessions_active").set(len(self._sessions))
        return 201, {"ok": True, "session": session.state()}

    def _do_delete(self, session_id: str) -> tuple[int, dict[str, Any]]:
        in_memory = self._sessions.pop(session_id, None) is not None
        on_disk = self.store.delete(session_id) if self.store is not None else False
        if not in_memory and not on_disk:
            return 404, {"ok": False, "error": f"unknown session {session_id!r}"}
        registry = obs.active()
        if registry is not None:
            registry.gauge("serve.sessions_active").set(len(self._sessions))
        return 200, {"ok": True, "deleted": session_id}

    def _do_query(
        self, session_id: str, body: dict[str, Any]
    ) -> tuple[int, dict[str, Any]]:
        session = self._get_session(session_id)
        if session is None:
            return 404, {"ok": False, "error": f"unknown session {session_id!r}"}
        op = body.get("op")
        weighted = isinstance(session, WeightedSession)
        allowed = _WEIGHTED_OPS if weighted else _BOOLEAN_OPS
        if op not in allowed:
            kind = "weighted" if weighted else "boolean"
            return 400, {
                "ok": False,
                "error": f"unknown op {op!r} for {kind} sessions; "
                f"expected one of {list(allowed)}",
            }
        if op == "ask":
            formula = body.get("formula")
            if not formula:
                return 400, {"ok": False, "error": "ask needs a 'formula'"}
            return 200, {
                "ok": True,
                "session": session_id,
                "op": "ask",
                "answer": session.ask(formula),
            }
        if op == "merge":
            sources = body.get("sources")
            if not sources or not isinstance(sources, list):
                return 400, {
                    "ok": False,
                    "error": "merge needs a non-empty 'sources' list",
                }
            if weighted:
                weights = None
                if body.get("weights") is not None:
                    raw = body["weights"]
                    weights = (
                        [_as_weight(value) for value in raw]
                        if isinstance(raw, list)
                        else [None]
                    )
                    if any(weight is None for weight in weights):
                        return 400, {
                            "ok": False,
                            "error": "'weights' must be a list of integers",
                        }
                session.merge(sources, weights=weights)
            else:
                session.merge(sources)
        else:
            formula = body.get("formula")
            if not formula:
                return 400, {"ok": False, "error": f"{op} needs a 'formula'"}
            if weighted:
                weight = _as_weight(body.get("weight", 1))
                if weight is None:
                    return 400, {"ok": False, "error": "'weight' must be an integer"}
                getattr(session, op)(formula, weight=weight)
            else:
                getattr(session, op)(formula)
        try:
            self._snapshot(session)
        except Exception as error:
            # The op applied in memory but did not persist.  Evict the
            # session so the next touch reloads the last good snapshot:
            # the error response then matches observable state, and a
            # client retry re-applies against that snapshot instead of
            # double-applying on divergent in-memory state.
            self._sessions.pop(session_id, None)
            registry = obs.active()
            if registry is not None:
                registry.counter("serve.snapshot_failures").inc()
                registry.gauge("serve.sessions_active").set(len(self._sessions))
            return 500, {
                "ok": False,
                "error": f"persistence failed; operation rolled back: {error}",
            }
        return 200, {"ok": True, "op": op, "session": session.state()}

    def _snapshot(self, session) -> None:
        if self.store is None:
            return
        started = time.perf_counter()
        self.store.save(session)
        registry = obs.active()
        if registry is not None:
            # A histogram, not a span: traced benchmark runs budget two
            # server spans per request against the span ring.
            registry.histogram("serve.stage.snapshot_seconds").observe(
                time.perf_counter() - started
            )
            registry.counter("serve.snapshots_written").inc()


def run_server(
    config: ServeConfig,
    out: Optional[TextIO] = None,
    metrics_out: Optional[str] = None,
) -> int:
    """Run the server until SIGINT/SIGTERM; the ``repro serve`` entry point.

    Observability is enabled for the process lifetime so ``/metrics`` and
    the ``serve.*`` instruments are live without any environment setup;
    ``metrics_out`` additionally writes the final payload on shutdown.
    """
    stream = out if out is not None else sys.stdout

    async def _main() -> None:
        server = ArbitrationServer(config)
        await server.start()
        print(f"serve: listening on {server.host}:{server.port}", file=stream, flush=True)
        if server.store is not None:
            persisted = len(server.store.list_ids())
            print(
                f"serve: store at {server.store.root} "
                f"({persisted} persisted session{'s' if persisted != 1 else ''})",
                file=stream,
                flush=True,
            )
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_event.set)
            except (NotImplementedError, RuntimeError):
                pass
        await stop_event.wait()
        await server.stop()
        print("serve: clean shutdown", file=stream, flush=True)

    with obs.use() as registry:
        asyncio.run(_main())
        if metrics_out is not None:
            obs.write_metrics(metrics_out, registry)
            print(f"serve: metrics written to {metrics_out}", file=stream, flush=True)
    return 0
