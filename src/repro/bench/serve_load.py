"""Serving-layer load benchmark: seeded traffic against an in-process server.

One measurement spins up an :class:`~repro.serve.server.ArbitrationServer`
on a loopback port, opens ``clients`` concurrent connections — every
client its own session over the *same* vocabulary, so all sessions
share one execution context per operator and the queries that queue up
while the worker is busy leave as one batch — and drives a seeded
:mod:`~repro.logic.random_formulas` change stream (revise / update /
arbitrate / fit, with an ``ask`` probe every few steps).  Recorded per row:

* throughput (``qps``) and client-observed latency (``p50_ms`` /
  ``p99_ms``);
* ``speedup`` — served qps normalized by a direct no-HTTP replay of the
  same seeded op stream on plain :class:`~repro.session.Session`
  objects, measured in the same run (``direct_qps``).  The gate
  ratio-bands this *serving-overhead ratio*, not raw throughput: slower
  hardware drags both measurements down together, while a rot confined
  to the serving layer (batching, queueing, protocol) drags only the
  numerator and fails CI;
* ``checksum`` — a digest of every response body in per-client order.
  The workload is seeded and each client's session is private, so the
  stream of answers is deterministic regardless of how requests
  interleave across clients; any drift is a correctness bug in the
  session layer, not noise.

Snapshotted to ``BENCH_serve.json`` and replayed by
``repro trajectory --baseline BENCH_serve.json --run``.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from typing import Sequence

from repro.bench.trajectory import save_snapshot
from repro.serve.protocol import ServeClient
from repro.serve.server import ArbitrationServer, ServeConfig
from repro.logic.random_formulas import random_formula, random_vocabulary

__all__ = ["measure_serve_load", "write_serve_snapshot"]

#: Connective depth of the generated change formulas.
FORMULA_DEPTH = 3

#: The per-client verb rotation (an ``ask`` probe rides every cycle).
_VERBS = ("revise", "update", "arbitrate", "fit")


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


def _direct_ops_per_second(
    atoms: int, clients: int, queries_per_client: int, seed: int
) -> float:
    """Replay the exact per-client op streams on plain sessions, serially.

    Same seeds, same verbs, same formulas as :func:`_run_client` — just
    no server in front.  This is the hardware calibration that makes the
    gated ``speedup`` ratio machine-robust.
    """
    from repro.session import Session

    started = time.perf_counter()
    operations = 0
    for index in range(clients):
        vocabulary = random_vocabulary(atoms)
        rng_seed = seed * 10_000 + index
        session = Session(f"direct-{index}", atoms=list(vocabulary.atoms))
        operations += 1  # the create
        for step in range(queries_per_client):
            formula = random_formula(vocabulary, FORMULA_DEPTH, rng_seed + step)
            getattr(session, _VERBS[step % len(_VERBS)])(str(formula))
            operations += 1
            if step % len(_VERBS) == len(_VERBS) - 1:
                probe = random_formula(vocabulary, 1, rng_seed + step + 7)
                session.ask(str(probe))
                operations += 1
    elapsed = time.perf_counter() - started
    return operations / elapsed if elapsed > 0 else 0.0


def _quantile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[index]


def measure_serve_load(
    atoms: int,
    clients: int,
    queries_per_client: int,
    seed: int = 0,
) -> dict:
    """One load row: ``clients`` concurrent sessions over ``atoms`` atoms."""

    async def _drive() -> dict:
        server = ArbitrationServer(ServeConfig(port=0))
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
        total = len(latencies)
        qps = total / elapsed if elapsed > 0 else 0.0
        direct_qps = _direct_ops_per_second(
            atoms, clients, queries_per_client, seed
        )
        return {
            "key": f"atoms={atoms} clients={clients}",
            "atoms": atoms,
            "clients": clients,
            "sessions": clients,
            "queries": total,
            "seconds": round(elapsed, 4),
            "qps": round(qps, 2),
            "p50_ms": round(_quantile(latencies, 0.50) * 1e3, 3),
            "p99_ms": round(_quantile(latencies, 0.99) * 1e3, 3),
            "queries_per_client": queries_per_client,
            "seed": seed,
            "direct_qps": round(direct_qps, 2),
            # What the trajectory gate ratio-bands: served throughput
            # relative to a direct no-HTTP replay on this same hardware,
            # so the gate survives slower CI runners.
            "speedup": round(qps / direct_qps, 4) if direct_qps > 0 else 0.0,
            "checksum": combined.hexdigest(),
        }

    return asyncio.run(_drive())


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
