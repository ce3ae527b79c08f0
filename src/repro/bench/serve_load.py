"""Serving-layer load benchmark: seeded traffic against an in-process server.

One measurement spins up an :class:`~repro.serve.server.ArbitrationServer`
on a loopback port, opens ``clients`` concurrent connections — every
client its own session over the *same* vocabulary, so all sessions
share one execution context per operator and the queries that queue up
while the worker is busy leave as one batch — and drives a seeded
:mod:`~repro.logic.random_formulas` change stream (revise / update /
arbitrate / fit, with an ``ask`` probe every few steps).  Each row runs
the workload :data:`REPEATS` times, because one run lasts a fraction of
a second and its throughput is mostly scheduling noise.  Recorded per
row:

* throughput (``qps``) and client-observed latency (``p50_ms`` /
  ``p99_ms``), each the median over the repeats;
* ``speedup`` — served qps normalized by a direct no-HTTP replay of the
  same seeded op stream on plain :class:`~repro.session.Session`
  objects, measured in the same repeat (``direct_qps``); the row keeps
  the median of the per-repeat ratios.  The replay does the server's
  work minus the HTTP: its own fresh context registry, the served
  session ids, and the same response bodies (``state()`` after every
  create and change, the answer after every ``ask``).  The gate
  ratio-bands this *serving-overhead ratio*, not raw throughput: slower
  hardware drags both measurements down together, while a rot confined
  to the serving layer (batching, queueing, protocol) drags only the
  numerator and fails CI;
* ``queries`` — the request count of one run;
* ``checksum`` — a digest of every response body in per-client order.
  The workload is seeded and each client's session is private, so the
  stream of answers is deterministic regardless of how requests
  interleave across clients; every repeat must give the same one, and
  so must the direct replay's bodies.  Any drift is a correctness bug in
  the session or serving layer, not noise.

Snapshotted to ``BENCH_serve.json`` and replayed by
``repro trajectory --baseline BENCH_serve.json --run``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import statistics
import time
from typing import Sequence

from repro.bench.trajectory import save_snapshot
from repro.errors import ReproError
from repro.serve.protocol import ServeClient
from repro.serve.server import ArbitrationServer, ServeConfig
from repro.session.registry import ContextRegistry
from repro.logic.random_formulas import random_formula, random_vocabulary

__all__ = ["measure_serve_load", "write_serve_snapshot"]

#: Connective depth of the generated change formulas.
FORMULA_DEPTH = 3

#: The per-client verb rotation (an ``ask`` probe rides every cycle).
_VERBS = ("revise", "update", "arbitrate", "fit")

#: Runs per row; the row reports medians over them.
REPEATS = 5


async def _run_client(
    host: str,
    port: int,
    client_index: int,
    atoms: int,
    queries: int,
    seed: int,
) -> tuple[list[float], str]:
    """Drive one client; returns its latencies and response digest."""
    vocabulary = random_vocabulary(atoms)
    rng_seed = seed * 10_000 + client_index
    session_id = f"load-{client_index}"
    client = ServeClient(host, port)
    latencies: list[float] = []
    digest = hashlib.sha256()

    async def call(method: str, path: str, payload=None) -> dict:
        started = time.perf_counter()
        status, body = await client.request(method, path, payload)
        latencies.append(time.perf_counter() - started)
        digest.update(f"{status}:{json.dumps(body, sort_keys=True)}\n".encode())
        return body

    await call(
        "POST",
        "/v1/sessions",
        {"id": session_id, "atoms": list(vocabulary.atoms)},
    )
    for step in range(queries):
        formula = random_formula(vocabulary, FORMULA_DEPTH, rng_seed + step)
        verb = _VERBS[step % len(_VERBS)]
        await call(
            "POST",
            f"/v1/sessions/{session_id}/query",
            {"op": verb, "formula": str(formula)},
        )
        if step % len(_VERBS) == len(_VERBS) - 1:
            probe = random_formula(vocabulary, 1, rng_seed + step + 7)
            await call(
                "POST",
                f"/v1/sessions/{session_id}/query",
                {"op": "ask", "formula": str(probe)},
            )
    await client.close()
    return latencies, digest.hexdigest()


def _direct_replay(
    atoms: int, clients: int, queries_per_client: int, seed: int
) -> tuple[float, str]:
    """Replay the per-client op streams on plain sessions, serially;
    returns operations per second and the response checksum.

    Same session ids, seeds, verbs and formulas as :func:`_run_client`,
    and the same work as the server minus the HTTP: a registry of its own
    (so every change is computed, not read from the served run's result
    cache), and every create builds its ``state()`` body and every query
    body is answered by :meth:`Session.query`, as the server answers it,
    digested as :func:`_run_client` digests the served ones.  This is the
    hardware calibration that makes the gated ``speedup`` ratio
    machine-robust.
    """
    from repro.session import Session

    registry = ContextRegistry()
    combined = hashlib.sha256()
    operations = 0
    started = time.perf_counter()
    for index in range(clients):
        vocabulary = random_vocabulary(atoms)
        rng_seed = seed * 10_000 + index
        session_id = f"load-{index}"
        digest = hashlib.sha256()

        def respond(status: int, body: dict) -> None:
            digest.update(f"{status}:{json.dumps(body, sort_keys=True)}\n".encode())

        session = Session(session_id, atoms=list(vocabulary.atoms), registry=registry)
        respond(201, {"ok": True, "session": session.state()})
        operations += 1
        for step in range(queries_per_client):
            formula = random_formula(vocabulary, FORMULA_DEPTH, rng_seed + step)
            verb = _VERBS[step % len(_VERBS)]
            respond(200, session.query({"op": verb, "formula": str(formula)}))
            operations += 1
            if step % len(_VERBS) == len(_VERBS) - 1:
                probe = random_formula(vocabulary, 1, rng_seed + step + 7)
                respond(200, session.query({"op": "ask", "formula": str(probe)}))
                operations += 1
        combined.update(digest.hexdigest().encode())
    elapsed = time.perf_counter() - started
    return (operations / elapsed if elapsed > 0 else 0.0), combined.hexdigest()


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[index]


def _run_once(atoms: int, clients: int, queries_per_client: int, seed: int) -> dict:
    """One served run and its direct replay, each on a fresh registry of
    its own, so both start with cold execution contexts and compute every
    change.  Refuses a direct replay whose checksum differs from the
    served one: the two sides must have answered alike."""

    async def _drive() -> dict:
        server = ArbitrationServer(ServeConfig(port=0), registry=ContextRegistry())
        await server.start()
        try:
            started = time.perf_counter()
            outcomes = await asyncio.gather(
                *(
                    _run_client(
                        server.host,
                        server.port,
                        index,
                        atoms,
                        queries_per_client,
                        seed,
                    )
                    for index in range(clients)
                )
            )
            elapsed = time.perf_counter() - started
        finally:
            await server.stop()
        latencies = sorted(
            latency for client_latencies, _ in outcomes for latency in client_latencies
        )
        combined = hashlib.sha256()
        for _, client_digest in outcomes:
            combined.update(client_digest.encode())
        qps = len(latencies) / elapsed if elapsed > 0 else 0.0
        direct_qps, direct_checksum = _direct_replay(
            atoms, clients, queries_per_client, seed
        )
        if direct_checksum != combined.hexdigest():
            raise ReproError(
                f"serve load at atoms={atoms} clients={clients}: the direct "
                "replay answered differently from the served run"
            )
        return {
            "queries": len(latencies),
            "seconds": elapsed,
            "qps": qps,
            "p50_ms": _quantile(latencies, 0.50) * 1e3,
            "p99_ms": _quantile(latencies, 0.99) * 1e3,
            "direct_qps": direct_qps,
            "speedup": qps / direct_qps if direct_qps > 0 else 0.0,
            "checksum": combined.hexdigest(),
        }

    return asyncio.run(_drive())


def measure_serve_load(
    atoms: int,
    clients: int,
    queries_per_client: int,
    seed: int = 0,
) -> dict:
    """One load row: ``clients`` concurrent sessions over ``atoms`` atoms,
    the median of :data:`REPEATS` runs."""
    runs = [
        _run_once(atoms, clients, queries_per_client, seed) for _ in range(REPEATS)
    ]
    checksums = {run["checksum"] for run in runs}
    if len(checksums) != 1:
        raise ReproError(
            f"serve load at atoms={atoms} clients={clients} answered "
            f"differently across repeats: {sorted(checksums)}"
        )

    def median(field: str) -> float:
        return statistics.median(run[field] for run in runs)

    return {
        "key": f"atoms={atoms} clients={clients}",
        "atoms": atoms,
        "clients": clients,
        "sessions": clients,
        "queries": runs[0]["queries"],
        "seconds": round(median("seconds"), 4),
        "qps": round(median("qps"), 2),
        "p50_ms": round(median("p50_ms"), 3),
        "p99_ms": round(median("p99_ms"), 3),
        "queries_per_client": queries_per_client,
        "seed": seed,
        "direct_qps": round(median("direct_qps"), 2),
        # What the trajectory gate ratio-bands: served throughput
        # relative to a direct no-HTTP replay on this same hardware,
        # so the gate survives slower CI runners.
        "speedup": round(median("speedup"), 4),
        "checksum": checksums.pop(),
    }


def write_serve_snapshot(
    path: str = "BENCH_serve.json",
    workloads: Sequence[tuple[int, int, int]] = (
        (4, 1, 24),
        (4, 8, 12),
        (6, 8, 12),
    ),
    seed: int = 0,
) -> dict:
    """Emit the serving-layer snapshot: one row per ``(atoms, clients,
    queries_per_client)`` workload."""
    return save_snapshot(
        path,
        "serve",
        {"workloads": workloads, "seed": seed},
        load=[
            measure_serve_load(atoms, clients, queries, seed=seed)
            for atoms, clients, queries in workloads
        ],
    )
