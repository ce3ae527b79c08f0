"""Served-query workloads against a real ``python -m repro serve`` process.

``serve-read``
    Open loop: 2 connections, each with Poisson arrivals at 125 req/s
    (250 req/s in all), 4 atoms, one session per connection, 9 ``ask``
    to 1 ``revise``, no store.  Compute is a small fraction of each
    request, so latency is set by the serving layers: protocol,
    admission queue, batch window and executor hop.
``serve-write``
    Closed loop: 2 connections, 8 atoms, mutations only (revise, update,
    arbitrate and fit in rotation over the default dalal / winslett /
    odist operators), ``--store`` on a fresh directory.  Each session is
    deleted and replaced after 128 mutations, because every snapshot
    re-serializes the whole history and session length must stay fixed;
    a run measures whole sessions only.

Requests are timed from their due time in the open loop and from their
send time in the closed loop.  The server runs on the last CPU and the
client on the first.  Set-up times and the closed loop's latencies and
window are calibrated to the reference speed (``speed.py``) by probes of
the server's CPU taken while it is idle: around each start-up, and
between rounds of ``ROUND_REQUESTS`` requests per connection.  The open
loop's latencies are raw: about half of each is the batch window's timed
sleep, and scaling them by the probes widened their spread between runs.
Every response is checked against an
in-process :class:`~repro.session.Session` replay of the same
per-session op stream.
"""

from __future__ import annotations

import asyncio
import collections
import itertools
import json
import os
import random
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from common import (
    layer_table,
    median,
    percentile,
    ratio,
    reap,
    share_pct,
    spans_from_records,
    spawn_python,
)
import speed
from repro import obs
from repro.logic.enumeration import form_formula, models
from repro.logic.parser import parse
from repro.logic.random_formulas import (
    random_formula,
    random_satisfiable_formula,
    random_vocabulary,
)
from repro.logic.semantics import ModelSet
from repro.serve.protocol import read_request, render_response
from repro.serve.store import SessionStore
from repro.session import ContextRegistry, Session
from repro.session.session import operator_by_name

CONNECTIONS = 2
#: Server start-ups per run; ``setup_s`` is their median, the last one serves.
SERVER_SPAWNS = 5
#: Untimed closed-loop requests per connection before timing starts.
WARMUP_REQUESTS = 10
#: Connective depth of every generated formula.
FORMULA_DEPTH = 3
#: The server's span ring holds 2,048 spans and each request leaves up to
#: two (``serve.batch`` and ``serve.job``), so a traced run stays below this.
TRACED_MAX_REQUESTS = 900
#: Closed-loop requests per connection between two probes of the server's CPU.
ROUND_REQUESTS = 16
MUTATIONS = ("revise", "update", "arbitrate", "fit")
#: The verb → operator role of the session's default roster.
ROLE_OF = {"revise": "revision", "update": "update", "fit": "fitting", "arbitrate": "fitting"}


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    atoms: int
    open_loop: bool
    store: bool
    #: Latency limit (ms) a request must meet to count towards goodput.
    slo_ms: float
    rate_per_conn: float = 0.0
    revise_share: float = 0.0
    session_length: int = 0


SERVE_READ = ServeWorkload(
    "serve-read", atoms=4, open_loop=True, store=False, slo_ms=10.0,
    rate_per_conn=125.0, revise_share=0.1,
)
SERVE_WRITE = ServeWorkload(
    "serve-write", atoms=8, open_loop=False, store=True, slo_ms=100.0,
    session_length=128,
)


@dataclass(frozen=True)
class Op:
    kind: str  # "create" | "query" | "delete"
    session: str
    verb: Optional[str] = None
    formula: Optional[str] = None
    atoms: tuple = ()

    def http(self) -> tuple[str, str, Optional[dict]]:
        if self.kind == "create":
            payload = {"id": self.session, "atoms": list(self.atoms), "formula": self.formula}
            return "POST", "/v1/sessions", payload
        if self.kind == "delete":
            return "DELETE", f"/v1/sessions/{self.session}", None
        payload = {"op": self.verb, "formula": self.formula}
        return "POST", f"/v1/sessions/{self.session}/query", payload


@dataclass
class Request:
    index: int
    server: int
    conn: int
    op: Op
    timed: bool
    due: float = 0.0
    sent: float = 0.0
    received: float = 0.0
    status: int = 0
    body: bytes = b""
    raw: bytes = b""
    #: Calibration factor of the request's round (``speed.py``); 1 when raw.
    scale: float = 1.0

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    @property
    def latency(self) -> float:
        """Seconds from due time (open loop) or send time (closed loop)."""
        return self.received - (self.due or self.sent)


def make_ops(workload: ServeWorkload, seed: int, conn: int, count: int) -> list[Op]:
    """The connection's op stream, at most ``count`` ops; the first op
    creates its session.  In the closed loop the first session is the
    warm-up: its ``WARMUP_REQUESTS`` ops after the create end with its
    delete, so the timed ops that follow are whole sessions."""
    vocabulary = random_vocabulary(workload.atoms)
    atoms = tuple(vocabulary.atoms)
    rng = random.Random(f"{workload.name}/{seed}/{conn}")

    def satisfiable() -> str:
        return str(random_satisfiable_formula(vocabulary, FORMULA_DEPTH, rng))

    ops: list[Op] = []
    if workload.open_loop:
        session = f"r{conn}"
        ops.append(Op("create", session, formula=satisfiable(), atoms=atoms))
        while len(ops) < count:
            if rng.random() < workload.revise_share:
                ops.append(Op("query", session, "revise", satisfiable()))
            else:
                query = str(random_formula(vocabulary, FORMULA_DEPTH, rng))
                ops.append(Op("query", session, "ask", query))
        return ops
    for generation in itertools.count():
        session = f"w{conn}-{generation}"
        length = WARMUP_REQUESTS - 1 if generation == 0 else workload.session_length
        ops.append(Op("create", session, formula=satisfiable(), atoms=atoms))
        for step in range(length):
            ops.append(Op("query", session, MUTATIONS[(step + conn) % 4], satisfiable()))
        ops.append(Op("delete", session))
        if len(ops) >= count:
            return ops[:count]
    raise AssertionError("unreachable")


def arrival_offsets(workload: ServeWorkload, seed: int, conn: int, seconds: float) -> list[float]:
    rng = random.Random(f"{workload.name}/arrivals/{seed}/{conn}")
    offsets, now = [], rng.expovariate(workload.rate_per_conn)
    while now < seconds:
        offsets.append(now)
        now += rng.expovariate(workload.rate_per_conn)
    return offsets


class Server:
    """One ``python -m repro serve --port 0`` subprocess on ``cpus``."""

    def __init__(self, tmp_dir: Path, store_dir: Optional[Path], cpus: list[int]):
        args = ["-m", "repro", "serve", "--port", "0"]
        if store_dir is not None:
            args += ["--store", str(store_dir)]
        self.proc = spawn_python(args, tmp_dir, cpus)
        line = self.proc.stdout.readline()
        if not line.startswith("serve: listening on "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        host, _, port = line.split()[-1].rpartition(":")
        self.host, self.port = host, int(port)

    def stop(self) -> float:
        """SIGTERM (clean shutdown), reap; returns the peak RSS in MiB."""
        try:
            os.kill(self.proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        return reap(self.proc)


class Connection:
    """A keep-alive HTTP/1.1 client connection that can pipeline: sends
    and receives are separate calls, answered in order."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, authority: str):
        self._reader, self._writer, self._authority = reader, writer, authority

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, f"{host}:{port}")

    def send(self, method: str, path: str, payload: Optional[dict]) -> bytes:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self._authority}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
        )
        frame = head.encode("latin-1") + body
        self._writer.write(frame)
        return frame

    async def receive(self) -> tuple[int, bytes]:
        status = int((await self._reader.readuntil(b"\r\n")).split()[1])
        length = 0
        while (line := await self._reader.readuntil(b"\r\n")) != b"\r\n":
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self._reader.readexactly(length)

    async def call(self, request: Request) -> None:
        request.sent = time.perf_counter()
        request.raw = self.send(*request.op.http())
        request.status, request.body = await self.receive()
        request.received = time.perf_counter()

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def open_loop(conn: Connection, requests: list[Request]) -> None:
    """Send each request at its due time whatever is still in flight."""
    in_flight: collections.deque[Request] = collections.deque()

    async def read_responses() -> None:
        for _ in requests:
            status, body = await conn.receive()
            request = in_flight.popleft()
            request.received = time.perf_counter()
            request.status, request.body = status, body

    reader = asyncio.create_task(read_responses())
    try:
        for request in requests:
            delay = request.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if reader.done():
                break
            request.sent = time.perf_counter()
            request.raw = conn.send(*request.op.http())
            in_flight.append(request)
        await reader
    finally:
        if not reader.done():
            reader.cancel()


@dataclass
class Drive:
    """Everything one pass over a serve workload recorded."""

    requests: list[Request] = field(default_factory=list)
    setups: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    window: float = 0.0
    server_metrics: Optional[dict] = None


async def _drive(
    workload: ServeWorkload,
    seed: int,
    seconds: float,
    work_dir: Path,
    spawns: int,
    max_requests: Optional[int],
    fetch_metrics: bool,
) -> Drive:
    drive = Drive()
    work_dir.mkdir(parents=True, exist_ok=True)
    per_conn = (max_requests or 10**9) // CONNECTIONS
    if workload.open_loop:
        offsets = [arrival_offsets(workload, seed, c, seconds) for c in range(CONNECTIONS)]
        timed_counts = [min(len(o), per_conn - 1 - WARMUP_REQUESTS) for o in offsets]
    else:
        # Closed loop: enough ops for a server several times faster than today.
        timed_counts = [min(int(seconds * 400), per_conn - 1 - WARMUP_REQUESTS)] * CONNECTIONS
    streams = [
        make_ops(workload, seed, c, 1 + WARMUP_REQUESTS + timed_counts[c])
        for c in range(CONNECTIONS)
    ]
    counter = itertools.count()

    def request(server: int, conn: int, op: Op, timed: bool) -> Request:
        made = Request(next(counter), server, conn, op, timed)
        drive.requests.append(made)
        return made

    available = speed.cpus()
    server_cpus = available[-1:]
    for spawn in range(spawns):
        before = speed.probe(server_cpus)
        started = time.perf_counter()
        store_dir = work_dir / f"store-{spawn}" if workload.store else None
        server = Server(work_dir, store_dir, server_cpus)
        conns: list[Connection] = []
        try:
            for _ in range(CONNECTIONS):
                conns.append(await Connection.open(server.host, server.port))
            for c, conn in enumerate(conns):
                await conn.call(request(spawn, c, streams[c][0], timed=False))
            raw_setup = time.perf_counter() - started
            drive.setups.append(speed.calibrate(raw_setup, before, speed.probe(server_cpus)))
            if spawn < spawns - 1:
                continue

            async def warm_up(c: int) -> None:
                for op in streams[c][1 : 1 + WARMUP_REQUESTS]:
                    await conns[c].call(request(spawn, c, op, timed=False))

            await asyncio.gather(*(warm_up(c) for c in range(CONNECTIONS)))
            timed = [
                [request(spawn, c, op, timed=True) for op in streams[c][1 + WARMUP_REQUESTS :]]
                for c in range(CONNECTIONS)
            ]
            start = time.perf_counter()
            if workload.open_loop:
                start += 0.01
                for c in range(CONNECTIONS):
                    for made, offset in zip(timed[c], offsets[c]):
                        made.due = start + offset
                await asyncio.gather(*(open_loop(conns[c], timed[c]) for c in range(CONNECTIONS)))
                drive.window = seconds
            else:
                deadline = start + seconds

                async def closed_loop(batch: list[Request]) -> bool:
                    """Send ``batch`` in order; stop (returning True) before
                    the first session that would start after the deadline,
                    so every run measures whole sessions."""
                    for made in batch:
                        if made.op.kind == "create" and time.perf_counter() >= deadline:
                            return True
                        await conns[made.conn].call(made)
                    return False

                # Rounds of ROUND_REQUESTS per connection.  A round ends once
                # each of its requests is answered, so between rounds the
                # server is idle and its CPU is probed.  A round's requests
                # and its share of the window are calibrated by the probes
                # around it.
                before = speed.probe(server_cpus)
                for first in range(0, max(map(len, timed)), ROUND_REQUESTS):
                    batches = [timed[c][first : first + ROUND_REQUESTS] for c in range(CONNECTIONS)]
                    round_start = time.perf_counter()
                    stopped = await asyncio.gather(*(closed_loop(batch) for batch in batches))
                    round_s = time.perf_counter() - round_start
                    after = speed.probe(server_cpus)
                    scale = speed.calibrate(1.0, before, after)
                    for made in itertools.chain(*batches):
                        made.scale = scale
                    drive.window += round_s * scale
                    before = after
                    if any(stopped):
                        break
                # Ops the deadline cut off were never sent.
                drive.requests = [r for r in drive.requests if r.sent or not r.timed]
            if fetch_metrics:
                conns[0].send("GET", "/metrics", None)
                status, body = await conns[0].receive()
                drive.server_metrics = json.loads(body) if status == 200 else None
        finally:
            for conn in conns:
                await conn.close()
            drive.peak_rss_mb = server.stop()
    return drive


def drive(workload: ServeWorkload, seed: int, seconds: float, work_dir: Path, *,
          spawns: int = SERVER_SPAWNS, max_requests: Optional[int] = None,
          fetch_metrics: bool = False) -> Drive:
    """One pass; the client runs on the first CPU, the server on the last."""
    available = speed.cpus()
    speed.pin(available[:1])
    try:
        return asyncio.run(
            _drive(workload, seed, seconds, work_dir, spawns, max_requests, fetch_metrics)
        )
    finally:
        speed.pin(available)


# -- the oracle -----------------------------------------------------------------------


def _expected(request: Request, sessions: dict, registry: ContextRegistry,
              store: Optional[SessionStore]) -> tuple[int, dict]:
    """The response the server must have sent, from an in-process replay."""
    op = request.op
    key = (request.server, op.session)
    if op.kind == "create":
        session = Session(op.session, atoms=list(op.atoms), formula=op.formula, registry=registry)
        sessions[key] = session
        if store is not None:
            store.save(session)
        return 201, {"ok": True, "session": session.state()}
    if op.kind == "delete":
        del sessions[key]
        if store is not None:
            store.delete(op.session)
        return 200, {"ok": True, "deleted": op.session}
    session = sessions[key]
    if op.verb == "ask":
        return 200, {"ok": True, "session": op.session, "op": "ask", "answer": session.ask(op.formula)}
    getattr(session, op.verb)(op.formula)
    if store is not None:
        store.save(session)
    return 200, {"ok": True, "op": op.verb, "session": session.state()}


def replay(requests: list[Request], store_dir: Optional[Path] = None) -> tuple[int, float]:
    """Replay every request on in-process sessions, in order.

    Returns ``(mismatches, seconds)``; with ``store_dir`` each change is
    also snapshotted, as the server does with ``--store``.  Each
    connection holds at most one job in the server's queue, so nothing
    is shed and every response must match.
    """
    registry = ContextRegistry()
    store = SessionStore(str(store_dir)) if store_dir is not None else None
    sessions: dict = {}
    mismatches = 0
    started = time.perf_counter()
    for request in requests:
        status, body = _expected(request, sessions, registry, store)
        if (status, body) != (request.status, json.loads(request.body)):
            mismatches += 1
    return mismatches, time.perf_counter() - started


# -- metrics ----------------------------------------------------------------------------


def _timed_queries(requests: list[Request]) -> list[Request]:
    return [r for r in requests if r.timed and r.op.kind == "query"]


def _latencies_ms(run: Drive, calibrated: bool = True) -> list[float]:
    return [r.latency * (r.scale if calibrated else 1.0) * 1e3
            for r in _timed_queries(run.requests) if r.ok]


def e2e_metrics(workload: ServeWorkload, run: Drive) -> dict:
    latencies = _latencies_ms(run)
    return {
        "p50_ms": median(latencies),
        "ops_s": len(latencies) / run.window,
        "goodput": sum(1 for ms in latencies if ms <= workload.slo_ms)
        / max(1, len(_timed_queries(run.requests))),
        "setup_s": median(run.setups),
        "peak_rss_mb": run.peak_rss_mb,
    }


def send_lateness_ms(run: Drive) -> list[float]:
    """How late the open-loop generator sent each request (ms)."""
    return [(r.sent - r.due) * 1e3 for r in run.requests if r.timed and r.due]


def run_untraced(workload: ServeWorkload, seed: int, seconds: float, work_dir: Path) -> dict:
    run = drive(workload, seed, seconds, work_dir)
    mismatches, _ = replay(run.requests)
    latencies = _latencies_ms(run)
    late = send_lateness_ms(run)
    return {
        "metrics": e2e_metrics(workload, run),
        "attempted": len(run.requests),
        "failed": sum(1 for r in run.requests if not r.ok),
        "correct": mismatches == 0,
        "info": {
            "samples": len(latencies),
            "raw_p50_ms": median(_latencies_ms(run, calibrated=False)),
            "p95_ms": percentile(latencies, 95),
            "p99_ms": percentile(latencies, 99),
            "late_ms_p99": percentile(late, 99) if late else 0.0,
            "mismatches": mismatches,
        },
    }


# -- the traced run ---------------------------------------------------------------------


async def _layer_replay(requests: list[Request], store: Optional[SessionStore],
                        sizes: list[float]) -> int:
    """Replay the stream again, timing each layer's public call in a span
    tagged with the client's request index; returns mirror mismatches.

    Per mutation the mirror decomposes the verb into the calls it makes —
    parse, μ enumeration, context lookup, ``apply_model_sets`` on a
    mirror :class:`ContextRegistry` fed the same calls in the same order
    (so its caches hit as the session's do), and ``form_formula``
    re-expression — and checks the mirror's result against the verb's.
    """
    registry, mirror = ContextRegistry(), ContextRegistry()
    sessions: dict = {}
    mismatches = 0
    for request in requests:
        op = request.op
        tags = {"request": request.index, "kind": op.kind}
        with obs.span("replay.request", verb=op.verb, **tags):
            reader = asyncio.StreamReader()
            reader.feed_data(request.raw)
            reader.feed_eof()
            with obs.span("protocol.parse", **tags):
                await read_request(reader)
            key = (request.server, op.session)
            if op.kind == "create":
                with obs.span("session.create", **tags):
                    session = sessions[key] = Session(
                        op.session, atoms=list(op.atoms), formula=op.formula, registry=registry
                    )
                    session.state()
            elif op.kind == "delete":
                with obs.span("session.delete", **tags):
                    del sessions[key]
                    if store is not None:
                        store.delete(op.session)
            else:
                session = sessions[key]
                vocabulary = session.vocabulary
                with obs.span("logic.parse", **tags):
                    incoming = parse(op.formula)
                with obs.span("logic.models", **tags):
                    incoming_models = models(incoming, vocabulary)
                before = session.kb.model_set
                with obs.span("session.verb", verb=op.verb, **tags):
                    if op.verb == "ask":
                        session.ask(op.formula)
                    else:
                        getattr(session, op.verb)(op.formula)
                if op.verb != "ask":
                    name = session.operator_names[ROLE_OF[op.verb]]
                    psi, mu, label = before, incoming_models, name
                    if op.verb == "arbitrate":
                        psi, mu, label = before.union(incoming_models), ModelSet.universe(vocabulary), "arbitration"
                    with obs.span("session.context_lookup", **tags):
                        context = mirror.context_for(operator_by_name(name), vocabulary)
                    with obs.span("engine.apply", operator=label, **tags):
                        after = context.apply_model_sets(psi, mu)
                    with obs.span("kb.reexpress", **tags):
                        form_formula(after)
                    if after != session.kb.model_set:
                        mismatches += 1
                    with obs.span("session.state", **tags):
                        session.state()
                    if store is not None:
                        with obs.span("store.save", **tags):
                            path = store.save(session)
                        sizes.append(os.path.getsize(path) / 1024.0)
            if op.kind == "create" and store is not None:
                with obs.span("store.save", **tags):
                    store.save(sessions[key])
            with obs.span("protocol.encode", **tags):
                render_response(request.status, json.loads(request.body))
    return mismatches


def _match_jobs(requests: list[Request], server_spans: list[dict]) -> None:
    """Tie each server ``serve.job`` span to the client request it served:
    the earliest-sent unmatched request of the same kind whose send and
    receive bracket the job."""
    jobs = sorted((s for s in server_spans if s["name"] == "serve.job"), key=lambda s: s["start"])
    pending = sorted((r for r in requests if r.sent), key=lambda r: r.sent)
    matched: set[int] = set()
    for job in jobs:
        end = job["start"] + job["dur"]
        for request in pending:
            if request.sent > job["start"]:
                break
            if (request.index not in matched and request.received >= end
                    and request.op.kind == job["args"].get("kind")):
                matched.add(request.index)
                job["args"]["request"] = request.index
                break


def _client_spans(requests: list[Request]) -> list[dict]:
    spans = []
    for request in requests:
        start = request.due or request.sent
        span = {
            "id": f"client:{request.index}",
            "parent": None,
            "name": "client.request",
            "start": start,
            "dur": request.received - start,
            "proc": "client",
            "args": {"request": request.index, "kind": request.op.kind, "verb": request.op.verb},
        }
        spans.append(span)
        if request.due:
            spans.append({
                "id": f"client:{request.index}:lag", "parent": span["id"], "name": "client.send_lag",
                "start": request.due, "dur": request.sent - request.due, "proc": "client",
                "args": {"request": request.index},
            })
    return spans


def run_traced(workload: ServeWorkload, seed: int, seconds: float, work_dir: Path) -> dict:
    """One shortened untraced pass (for the overhead ratio), one traced
    pass, then the layer replay; returns the per-layer metrics."""
    seconds /= 4
    if workload.open_loop:
        budget = TRACED_MAX_REQUESTS - CONNECTIONS * (1 + WARMUP_REQUESTS)
        seconds = min(seconds, budget / (workload.rate_per_conn * CONNECTIONS))
    plain = drive(workload, seed, seconds, work_dir / "plain", spawns=1,
                  max_requests=TRACED_MAX_REQUESTS)
    run = drive(workload, seed, seconds, work_dir / "traced", spawns=1,
                max_requests=TRACED_MAX_REQUESTS, fetch_metrics=True)
    mismatches, replay_s = replay(run.requests, work_dir / "direct" if workload.store else None)
    sizes: list[float] = []
    with obs.use(span_capacity=1 << 17):
        store = SessionStore(str(work_dir / "mirror")) if workload.store else None
        mismatches += asyncio.run(_layer_replay(run.requests, store, sizes))
        replay_spans = spans_from_records(obs.active_recorder().records(), "replay")
    payload = run.server_metrics or {}
    server_spans = spans_from_records(payload.get("spans", []), "server")
    _match_jobs(run.requests, server_spans)
    job_of = {s["args"]["request"]: s["id"] for s in server_spans if "request" in s["args"]}
    client = _client_spans(run.requests)
    for span in client:
        if span["name"] == "client.request" and span["args"]["request"] in job_of:
            span["args"]["job"] = job_of[span["args"]["request"]]
    spans = client + server_spans + replay_spans

    timed = {r.index for r in _timed_queries(run.requests)}
    # Spans are raw times, so their shares are of the raw median.
    p50 = median(_latencies_ms(run, calibrated=False))

    def per_request(name: str, **match) -> dict[int, float]:
        return {
            s["args"]["request"]: s["dur"] * 1e3
            for s in spans
            if s["name"] == name and s["args"].get("request") in timed
            and all(s["args"].get(k) == v for k, v in match.items())
        }

    def pct(name: str, **match) -> float:
        return share_pct(median(list(per_request(name, **match).values())), p50)

    parse_ms = median(list(per_request("protocol.parse").values()))
    encode_ms = median(list(per_request("protocol.encode").values()))
    job_ms = median([s["dur"] * 1e3 for s in server_spans
                     if s["name"] == "serve.job" and s["args"].get("request") in timed])
    verb = per_request("session.verb")
    parts = [per_request(name) for name in
             ("logic.parse", "logic.models", "engine.apply", "kb.reexpress")]
    other = [verb[i] - sum(part.get(i, 0.0) for part in parts)
             for i in verb if i in parts[2]]
    counters = payload.get("counters", {})
    batch = payload.get("histograms", {}).get("serve.batch_size", {})
    late = send_lateness_ms(run)
    metrics = {
        "protocol.parse_pct": share_pct(parse_ms, p50),
        "protocol.encode_pct": share_pct(encode_ms, p50),
        "server.job_pct": share_pct(job_ms, p50),
        "server.wait_pct": share_pct(max(0.0, p50 - job_ms - parse_ms - encode_ms), p50),
        "server.batch_size_mean": batch.get("mean", 0.0),
        "server.coalesced_share": counters.get("serve.coalesced", 0)
        / max(1, counters.get("serve.queries", 0)),
        "server.shed": counters.get("serve.shed", 0),
        "store.save_pct": pct("store.save"),
        "store.snapshot_kib_p50": median(sizes),
        "session.state_pct": pct("session.state"),
        "session.context_lookup_pct": pct("session.context_lookup"),
        "session.contexts_hit_ratio": ratio(counters.get("cache.session.contexts.hits", 0),
                                            counters.get("cache.session.contexts.misses", 0)),
        "session.direct_ops_s": len(run.requests) / replay_s,
        "engine.key_hit_ratio": ratio(counters.get("cache.engine.keys.hits", 0),
                                      counters.get("cache.engine.keys.misses", 0)),
        "engine.result_hit_ratio": ratio(counters.get("cache.engine.results.hits", 0),
                                         counters.get("cache.engine.results.misses", 0)),
        "kb.reexpress_pct": pct("kb.reexpress"),
        "kb.other_pct": share_pct(median(other), p50),
        "logic.parse_pct": pct("logic.parse"),
        "logic.models_pct": pct("logic.models"),
        "bench.late_p99_pct": share_pct(percentile(late, 99), p50) if late else 0.0,
        "bench.tracing_overhead": median(_latencies_ms(run)) / e2e_metrics(workload, plain)["p50_ms"],
    }
    for name in ("ask",) + MUTATIONS:
        metrics[f"session.verb_pct.{name}"] = pct("session.verb", verb=name)
    for label in ("dalal", "winslett", "odist", "arbitration"):
        metrics[f"engine.apply_pct.{label}"] = pct("engine.apply", operator=label)
    return {
        "metrics": metrics,
        "attempted": len(run.requests) + len(plain.requests),
        "failed": sum(1 for r in run.requests + plain.requests if not r.ok),
        "correct": mismatches == 0 and replay(plain.requests)[0] == 0,
        "spans": spans,
        "layers": layer_table(spans),
    }
