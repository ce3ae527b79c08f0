"""Tests for the serving layer: protocol, batching, admission, persistence.

All async tests run through ``asyncio.run`` inside plain pytest functions
(the suite has no async plugin, deliberately — the stdlib is enough).
Every server is bound to port 0 on loopback and torn down in the test.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import asynccontextmanager
from pathlib import Path

import pytest

from repro import obs
from repro.errors import ReproError
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.serialize import (
    canonical_json,
    change_record_to_dict,
    knowledge_base_to_dict,
    save_json_snapshot,
)
from repro.logic.parser import MAX_FORMULA_DEPTH
from repro.logic.random_formulas import random_satisfiable_formula, random_vocabulary
from repro.serve import (
    ArbitrationServer,
    ServeClient,
    ServeConfig,
    SessionStore,
)
from repro.serve.store import SNAPSHOT_VERSION
from repro.session import ContextRegistry, Session, WeightedSession


@asynccontextmanager
async def serve(config: ServeConfig | None = None):
    """A started server on a fresh port plus one connected client."""
    server = ArbitrationServer(config or ServeConfig(port=0))
    await server.start()
    client = ServeClient(server.host, server.port)
    try:
        yield server, client
    finally:
        await client.close()
        await server.stop()


def run(coroutine):
    return asyncio.run(coroutine)


async def raw_request(server, method: str, path: str, body: bytes):
    """Send ``body`` verbatim on a fresh connection: ``(status, payload)``.

    ``ServeClient`` can only send what ``json.dumps`` renders; this reaches
    the bodies it cannot (bad UTF-8, ``1e999``, 100,000-deep arrays).
    ``(None, None)`` means the server closed without a response.
    """
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(
        f"{method} {path} HTTP/1.1\r\nConnection: close\r\n"
        f"Content-Length: {len(body)}\r\n\r\n".encode("latin-1")
        + body
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    if not raw:
        return None, None
    head, _, payload = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


class TestProtocolErrors:
    def test_malformed_request_line_is_400_and_close(self):
        async def main():
            async with serve() as (server, _):
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(b"NOT-HTTP\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return raw

        raw = run(main())
        assert b"400" in raw.split(b"\r\n", 1)[0]
        assert b"malformed request line" in raw

    def test_oversized_body_is_413(self):
        async def main():
            async with serve() as (server, _):
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(
                    b"POST /v1/sessions HTTP/1.1\r\n"
                    b"Content-Length: 99999999\r\n\r\n"
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return raw

        assert b"413" in run(main()).split(b"\r\n", 1)[0]

    def test_bad_json_body_is_400(self):
        async def main():
            async with serve() as (server, _):
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                body = b"{not json"
                writer.write(
                    b"POST /v1/sessions HTTP/1.1\r\n"
                    + f"Content-Length: {len(body)}\r\n\r\n".encode()
                    + body
                )
                await writer.drain()
                status_line = await reader.readline()
                writer.close()
                return status_line

        assert b"400" in run(main())

    def test_header_flood_is_431(self):
        async def main():
            async with serve() as (server, _):
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                flood = b"GET /healthz HTTP/1.1\r\n" + b"".join(
                    f"x-flood-{index}: v\r\n".encode() for index in range(200)
                )
                writer.write(flood + b"\r\n")
                try:
                    await writer.drain()
                except ConnectionError:
                    pass  # the server may refuse mid-stream
                raw = await reader.read()
                writer.close()
                return raw

        raw = run(main())
        assert b"431" in raw.split(b"\r\n", 1)[0]
        assert b"too many request headers" in raw

    def test_unknown_endpoint_is_404(self):
        async def main():
            async with serve() as (_, client):
                return await client.request("GET", "/nope")

        status, body = run(main())
        assert status == 404 and body["ok"] is False

    def test_wrong_method_is_405(self):
        async def main():
            async with serve() as (_, client):
                return await client.request("DELETE", "/healthz")

        assert run(main())[0] == 405


class TestSessionEndpoints:
    def test_create_query_ask_roundtrip_matches_direct_kb(self):
        async def main():
            async with serve() as (_, client):
                responses = []
                responses.append(
                    await client.request(
                        "POST",
                        "/v1/sessions",
                        {
                            "id": "s1",
                            "atoms": ["a", "b", "c"],
                            "formula": "a & b & (a & b -> c)",
                        },
                    )
                )
                for op, formula in [
                    ("revise", "!c"),
                    ("update", "b -> a"),
                    ("arbitrate", "!a & !b"),
                    ("ask", "a | b"),
                ]:
                    responses.append(
                        await client.request(
                            "POST",
                            "/v1/sessions/s1/query",
                            {"op": op, "formula": formula},
                        )
                    )
                return responses

        created, revised, updated, arbitrated, asked = run(main())
        assert created[0] == 201 and created[1]["session"]["steps"] == 0
        # the same sequence against a plain knowledge base
        kb = KnowledgeBase("a & b & (a & b -> c)", atoms=["a", "b", "c"])
        kb = kb.revise("!c").update("b -> a").arbitrate("!a & !b")
        assert revised[0] == updated[0] == arbitrated[0] == 200
        final = arbitrated[1]["session"]
        assert final["steps"] == 3
        restored = KnowledgeBase(final["formula"], atoms=final["atoms"])
        assert restored.model_set == kb.model_set
        assert asked[1]["answer"] == kb.ask("a | b")

    def test_merge_endpoint(self):
        async def main():
            async with serve() as (_, client):
                await client.request(
                    "POST",
                    "/v1/sessions",
                    {"id": "m", "atoms": ["a", "b"], "formula": "a & b"},
                )
                return await client.request(
                    "POST",
                    "/v1/sessions/m/query",
                    {"op": "merge", "sources": ["a & !b", "!a & b"]},
                )

        status, body = run(main())
        assert status == 200 and body["session"]["steps"] == 1
        session = Session("m", atoms=["a", "b"], formula="a & b")
        session.merge(["a & !b", "!a & b"])
        assert body["session"]["formula"] == session.state()["formula"]

    def test_conflict_unknown_and_delete(self):
        async def main():
            async with serve() as (_, client):
                await client.request(
                    "POST", "/v1/sessions", {"id": "x", "atoms": ["a"]}
                )
                conflict = await client.request(
                    "POST", "/v1/sessions", {"id": "x", "atoms": ["a"]}
                )
                missing = await client.request("GET", "/v1/sessions/ghost")
                deleted = await client.request("DELETE", "/v1/sessions/x")
                gone = await client.request("GET", "/v1/sessions/x")
                return conflict, missing, deleted, gone

        conflict, missing, deleted, gone = run(main())
        assert conflict[0] == 409
        assert missing[0] == 404
        assert deleted == (200, {"ok": True, "deleted": "x"})
        assert gone[0] == 404

    def test_bad_requests_are_400(self):
        async def main():
            async with serve() as (_, client):
                no_atoms = await client.request(
                    "POST", "/v1/sessions", {"id": "y"}
                )
                await client.request(
                    "POST", "/v1/sessions", {"id": "y", "atoms": ["a"]}
                )
                bad_op = await client.request(
                    "POST", "/v1/sessions/y/query", {"op": "transmogrify"}
                )
                bad_formula = await client.request(
                    "POST",
                    "/v1/sessions/y/query",
                    {"op": "revise", "formula": "a &&& b"},
                )
                bad_id = await client.request(
                    "POST", "/v1/sessions", {"id": "../sneaky", "atoms": ["a"]}
                )
                return no_atoms, bad_op, bad_formula, bad_id

        no_atoms, bad_op, bad_formula, bad_id = run(main())
        assert no_atoms[0] == 400
        assert bad_op[0] == 400 and "unknown op" in bad_op[1]["error"]
        assert bad_formula[0] == 400
        assert bad_id[0] == 400 and "invalid session id" in bad_id[1]["error"]

    def test_malformed_create_atoms_do_not_kill_the_batcher(self):
        # pre-fix, tuple(5) / hashing [["a"]] raised TypeError on the
        # event loop and killed the batcher task: every later request
        # hung and the server 429'd until restart
        async def main():
            async with serve() as (_, client):
                bad_scalar = await client.request(
                    "POST", "/v1/sessions", {"id": "b1", "atoms": 5}
                )
                bad_nested = await client.request(
                    "POST", "/v1/sessions", {"id": "b2", "atoms": [["a"]]}
                )
                good = await client.request(
                    "POST", "/v1/sessions", {"id": "ok", "atoms": ["a"]}
                )
                return bad_scalar, bad_nested, good

        bad_scalar, bad_nested, good = run(main())
        assert bad_scalar[0] == 400
        assert bad_nested[0] == 400 and bad_nested[1]["ok"] is False
        assert good[0] == 201  # the batcher survived both

    def test_malformed_weight_is_400_not_500(self):
        async def main():
            async with serve() as (_, client):
                bad_create = await client.request(
                    "POST",
                    "/v1/sessions",
                    {"id": "w1", "atoms": ["a"], "weighted": True, "weight": "abc"},
                )
                await client.request(
                    "POST",
                    "/v1/sessions",
                    {"id": "w2", "atoms": ["a"], "weighted": True},
                )
                bad_query = await client.request(
                    "POST",
                    "/v1/sessions/w2/query",
                    {"op": "fit", "formula": "a", "weight": [1]},
                )
                bad_weights = await client.request(
                    "POST",
                    "/v1/sessions/w2/query",
                    {"op": "merge", "sources": ["a"], "weights": ["x"]},
                )
                string_weight = await client.request(
                    "POST",
                    "/v1/sessions/w2/query",
                    {"op": "fit", "formula": "a", "weight": "3"},
                )
                return bad_create, bad_query, bad_weights, string_weight

        bad_create, bad_query, bad_weights, string_weight = run(main())
        assert bad_create[0] == 400 and "weight" in bad_create[1]["error"]
        assert bad_query[0] == 400 and "weight" in bad_query[1]["error"]
        assert bad_weights[0] == 400 and "weights" in bad_weights[1]["error"]
        assert string_weight[0] == 200  # numeric strings still coerce

    def test_weighted_session_over_http_matches_direct(self):
        async def main():
            async with serve() as (_, client):
                await client.request(
                    "POST",
                    "/v1/sessions",
                    {
                        "id": "w",
                        "atoms": ["a", "b"],
                        "formula": "a",
                        "weighted": True,
                        "weight": 2,
                    },
                )
                arb = await client.request(
                    "POST",
                    "/v1/sessions/w/query",
                    {"op": "arbitrate", "formula": "!a & b", "weight": 1},
                )
                revise = await client.request(
                    "POST", "/v1/sessions/w/query", {"op": "revise", "formula": "a"}
                )
                ask = await client.request(
                    "POST", "/v1/sessions/w/query", {"op": "ask", "formula": "a"}
                )
                return arb, revise, ask

        arb, revise, ask = run(main())
        direct = WeightedSession("w", atoms=["a", "b"], formula="a", weight=2)
        direct.arbitrate("!a & b", weight=1)
        assert arb[0] == 200
        assert arb[1]["session"] == direct.state()
        assert revise[0] == 400  # boolean-only verb on a weighted session
        assert ask[1]["answer"] == direct.ask("a")


def _create(**fields) -> tuple[str, bytes]:
    body = {"id": "m", "atoms": ["a"], **fields}
    return "/v1/sessions", json.dumps(body).encode()


def _query(session: str, **fields) -> tuple[str, bytes]:
    return f"/v1/sessions/{session}/query", json.dumps(fields).encode()


NON_STRINGS = {"int": 5, "null": None, "object": {}, "list": ["a"]}

#: Bodies that once answered 500 or closed the connection unanswered.
#: Sessions ``b`` (Boolean) and ``w`` (weighted) over atoms a, b exist.
MALFORMED_BODIES = {
    "non-utf8": ("/v1/sessions", b"\x80abc"),
    "json-nested-too-deeply": ("/v1/sessions", b"[" * 100_000),
    "integer-over-4300-digits": ("/v1/sessions", b'{"weight": ' + b"1" * 5000 + b"}"),
    **{f"create-formula-{k}": _create(formula=v) for k, v in NON_STRINGS.items()},
    **{
        f"weighted-create-formula-{k}": _create(weighted=True, formula=v)
        for k, v in NON_STRINGS.items()
    },
    "revise-formula-int": _query("b", op="revise", formula=5),
    "fit-formula-list": _query("b", op="fit", formula=["a"]),
    "ask-formula-object": _query("b", op="ask", formula={"x": 1}),
    "weighted-fit-formula-int": _query("w", op="fit", formula=5),
    "merge-source-int": _query("b", op="merge", sources=["a", 5]),
    "merge-source-null": _query("b", op="merge", sources=[None]),
    "weighted-merge-source-null": _query("w", op="merge", sources=[None]),
    "operators-string": _create(operators="x"),
    "operators-list": _create(operators=["x"]),
    "operator-name-list": _create(operators={"revision": ["x"]}),
    "id-list": _create(id=["a"]),
    # json.dumps cannot write 1e999; Python's json.loads reads it as inf
    "weighted-create-weight-inf": (
        "/v1/sessions",
        b'{"id": "m", "atoms": ["a"], "weighted": true, "weight": 1e999}',
    ),
    "weighted-fit-weight-inf": (
        "/v1/sessions/w/query",
        b'{"op": "fit", "formula": "a", "weight": 1e999}',
    ),
    "weighted-merge-weight-inf": (
        "/v1/sessions/w/query",
        b'{"op": "merge", "sources": ["a"], "weights": [1e999]}',
    ),
    "formula-parentheses-300-deep": _query(
        "b", op="revise", formula="(" * 300 + "a" + ")" * 300
    ),
    "formula-negations-1000-deep": _query("b", op="revise", formula="!" * 1000 + "a"),
    "formula-xor-chain-1500-long": _query(
        "b", op="ask", formula=" ^ ".join(["a"] * 1500)
    ),
}


class TestMalformedBodies:
    @pytest.mark.parametrize(
        "path, body", MALFORMED_BODIES.values(), ids=MALFORMED_BODIES.keys()
    )
    def test_malformed_body_is_400_and_server_keeps_serving(self, path, body):
        async def main():
            async with serve() as (server, client):
                await client.request(
                    "POST", "/v1/sessions", {"id": "b", "atoms": ["a", "b"]}
                )
                await client.request(
                    "POST",
                    "/v1/sessions",
                    {"id": "w", "atoms": ["a", "b"], "weighted": True},
                )
                bad = await raw_request(server, "POST", path, body)
                good = await client.request(
                    "POST", "/v1/sessions/b/query", {"op": "revise", "formula": "a"}
                )
                return bad, good

        (status, payload), good = run(main())
        assert status == 400, payload
        assert payload["ok"] is False
        assert good[0] == 200 and good[1]["session"]["steps"] == 1


class TestBatchingAndAdmission:
    def test_concurrent_queries_coalesce_into_batches(self):
        queued = 8

        async def main():
            with obs.use() as registry:
                async with serve() as (server, client):
                    for index in range(4):
                        await client.request(
                            "POST",
                            "/v1/sessions",
                            {"id": f"c{index}", "atoms": ["a", "b"]},
                        )
                    release = threading.Event()
                    # Hold the single worker: every batch the batcher
                    # hands over now waits behind this call.
                    blocker = server._executor.submit(release.wait, 10)
                    extras = [
                        ServeClient(server.host, server.port)
                        for _ in range(queued + 1)
                    ]

                    def query(index: int):
                        return extras[index].request(
                            "POST",
                            f"/v1/sessions/c{index % 4}/query",
                            {"op": "revise", "formula": "a" if index % 2 else "!a"},
                        )

                    async def until(condition):
                        deadline = time.monotonic() + 10
                        while not condition():
                            assert time.monotonic() < deadline, "timed out"
                            await asyncio.sleep(0.005)

                    try:
                        # The head query leaves alone and waits on the
                        # held worker; the rest pile up in the queue.
                        head = asyncio.ensure_future(query(queued))
                        await until(
                            lambda: registry.counter("serve.batches").value == 5
                        )
                        behind = [
                            asyncio.ensure_future(query(index))
                            for index in range(queued)
                        ]
                        await until(lambda: server._queue.qsize() == queued)
                    finally:
                        release.set()
                    outcomes = await asyncio.gather(head, *behind)
                    blocker.result(timeout=10)
                    for extra in extras:
                        await extra.close()
                snapshot = registry.snapshot()
            return outcomes, snapshot

        outcomes, snapshot = run(main())
        assert all(status == 200 for status, _ in outcomes)
        counters = snapshot["counters"]
        # 4 creates + the head query + one batch for everything behind it
        assert counters["serve.batches"] == 6
        assert snapshot["histograms"]["serve.batch_size"]["max"] == queued

    def test_batch_runs_mixed_vocabularies_in_arrival_order(self):
        async def main():
            with obs.use() as registry:
                async with serve() as (server, _):
                    for name in ("x0", "x1", "y0", "y1"):
                        atoms = ["a", "b"] if name[0] == "x" else ["p", "q"]
                        body = {"id": name, "atoms": atoms}
                        await server._enqueue("create", None, body)
                    order = []
                    original = server._process_job

                    def recording(job):
                        order.append(job.session_id)
                        return original(job)

                    server._process_job = recording
                    arrivals = ["x0", "y0", "x1", "y1"]
                    # All four are queued in one event-loop turn, before
                    # the idle batcher wakes, so they leave as one batch.
                    ask = {"op": "ask", "formula": "true"}
                    asks = [server._enqueue("query", sid, ask) for sid in arrivals]
                    results = await asyncio.wait_for(asyncio.gather(*asks), 10)
                snapshot = registry.snapshot()
            return arrivals, order, results, snapshot

        arrivals, order, results, snapshot = run(main())
        assert snapshot["histograms"]["serve.batch_size"]["max"] == len(arrivals)
        assert order == arrivals
        assert [status for status, _ in results] == [200] * len(arrivals)

    def test_lone_job_dispatches_without_waiting(self):
        async def main():
            async with serve() as (server, _):
                dispatched = []

                async def record(batch):
                    dispatched.append(len(batch))
                    for job in batch:
                        job.future.set_result((200, {"ok": True}))

                server._run_batch = record
                pending = asyncio.ensure_future(
                    server._enqueue("state", "lone", {})
                )
                yields = 0
                while not dispatched and yields < 10:
                    await asyncio.sleep(0)
                    yields += 1
                result = await asyncio.wait_for(pending, 5)
                return dispatched, yields, result

        dispatched, yields, result = run(main())
        # No batch window: an idle server hands a lone job straight to
        # the worker, within a few event-loop turns and no timer.
        assert dispatched == [1] and yields < 10
        assert result == (200, {"ok": True})

    def test_full_queue_sheds_with_429(self):
        async def main():
            config = ServeConfig(port=0, queue_limit=1)
            with obs.use() as registry:
                async with serve(config) as (server, client):
                    # Freeze the batcher so the queue cannot drain: the
                    # first request occupies the single slot, the second
                    # must be shed immediately.
                    server._batcher_task.cancel()
                    await asyncio.sleep(0)

                    first_reader, first_writer = await asyncio.open_connection(
                        server.host, server.port
                    )
                    first_writer.write(
                        b"GET /v1/sessions/pending HTTP/1.1\r\n"
                        b"Content-Length: 0\r\n\r\n"
                    )
                    await first_writer.drain()
                    await asyncio.sleep(0.05)  # let it enqueue
                    shed = await client.request("GET", "/v1/sessions/pending")
                    first_writer.close()
                    snapshot = registry.snapshot()
                    return shed, snapshot

        shed, snapshot = run(main())
        status, body = shed
        assert status == 429
        assert body["shed"] is True
        assert snapshot["counters"]["serve.shed"] == 1

    def test_cancel_mid_batch_fails_inflight_job_with_503(self):
        # stop()'s full-queue fallback cancels the batcher; a job already
        # handed to the worker must be answered, not left hanging
        async def main():
            server = ArbitrationServer(ServeConfig(port=0))
            await server.start()
            release = threading.Event()
            original = server._process_jobs

            def blocked(jobs):
                release.wait(10)
                return original(jobs)

            server._process_jobs = blocked
            client = ServeClient(server.host, server.port)
            try:
                pending = asyncio.create_task(
                    client.request("GET", "/v1/sessions/inflight")
                )
                await asyncio.sleep(0.1)  # batcher dispatched to the worker
                server._batcher_task.cancel()
                return await asyncio.wait_for(pending, 5)
            finally:
                release.set()
                await client.close()
                await server.stop()

        status, body = run(main())
        assert status == 503
        assert body["ok"] is False

    def test_healthz_bypasses_admission(self):
        async def main():
            config = ServeConfig(port=0, queue_limit=1)
            async with serve(config) as (server, client):
                server._batcher_task.cancel()
                await asyncio.sleep(0)
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(
                    b"GET /v1/sessions/pending HTTP/1.1\r\n"
                    b"Content-Length: 0\r\n\r\n"
                )
                await writer.drain()
                await asyncio.sleep(0.05)
                health = await client.request("GET", "/healthz")
                writer.close()
                return health

        status, body = run(main())
        assert status == 200 and body["ok"] is True
        assert body["queue_depth"] == 1


#: Every verb a served-versus-direct script draws from.
SCRIPT_VERBS = ("revise", "update", "fit", "arbitrate", "contract", "merge", "ask")


def client_script(client: int, vocabulary, rounds: int) -> tuple[str, list[dict]]:
    """One client's seeded initial formula and query bodies: every verb
    ``rounds`` times in a shuffled order, satisfiable depth-2 formulas."""
    rng = random.Random(client)

    def formula() -> str:
        return str(random_satisfiable_formula(vocabulary, 2, rng))

    verbs = list(SCRIPT_VERBS) * rounds
    rng.shuffle(verbs)
    bodies = []
    for verb in verbs:
        if verb == "merge":
            sources = [formula() for _ in range(rng.randint(1, 2))]
            bodies.append({"op": verb, "sources": sources})
        else:
            bodies.append({"op": verb, "formula": formula()})
    return formula(), bodies


def replay_script(session_id, atoms, initial, bodies, store):
    """The responses a server must send for one client's script, from an
    in-process :class:`Session` snapshotting into ``store`` as the server
    does; returns ``(responses, session)``."""
    session = Session(
        session_id, atoms=atoms, formula=initial, registry=ContextRegistry()
    )
    store.save(session)
    responses = [(201, {"ok": True, "session": session.state()})]
    for body in bodies:
        op = body["op"]
        if op == "ask":
            answer = session.ask(body["formula"])
            reply = {"ok": True, "session": session_id, "op": op, "answer": answer}
            responses.append((200, reply))
            continue
        getattr(session, op)(body["sources"] if op == "merge" else body["formula"])
        store.save(session)
        responses.append((200, {"ok": True, "op": op, "session": session.state()}))
    return responses, session


class TestServedMatchesDirect:
    CLIENTS = 8  # more connections than the 2-vCPU CI hosts have cores
    ROUNDS = 3

    def test_concurrent_clients_match_in_process_replay(self, tmp_path):
        vocabulary = random_vocabulary(4)
        atoms = list(vocabulary.atoms)
        scripts = {
            f"diff-{client}": client_script(client, vocabulary, self.ROUNDS)
            for client in range(self.CLIENTS)
        }
        served_dir = tmp_path / "served"
        config = ServeConfig(port=0, store_dir=str(served_dir))

        async def drive(server, session_id, initial, bodies):
            client = ServeClient(server.host, server.port)
            try:
                create = {"id": session_id, "atoms": atoms, "formula": initial}
                responses = [await client.request("POST", "/v1/sessions", create)]
                for body in bodies:
                    path = f"/v1/sessions/{session_id}/query"
                    responses.append(await client.request("POST", path, body))
                return responses
            finally:
                await client.close()

        async def first_life():
            async with serve(config) as (server, _):
                return await asyncio.gather(
                    *(drive(server, sid, *script) for sid, script in scripts.items())
                )

        async def second_life():
            async with serve(config) as (_, client):
                return [
                    await client.request("GET", f"/v1/sessions/{sid}")
                    for sid in scripts
                ]

        served = run(asyncio.wait_for(first_life(), 120))
        restarted = run(asyncio.wait_for(second_life(), 60))

        direct_store = SessionStore(str(tmp_path / "direct"))
        for (sid, (initial, bodies)), responses, state in zip(
            scripts.items(), served, restarted
        ):
            expected, session = replay_script(sid, atoms, initial, bodies, direct_store)
            assert responses == expected, sid
            assert state == (200, {"ok": True, "session": session.state()}), sid
            assert (served_dir / f"{sid}.json").read_bytes() == Path(
                direct_store.path_for(sid)
            ).read_bytes(), sid


class TestPersistence:
    def test_restart_restores_sessions_byte_identically(self, tmp_path):
        store_dir = str(tmp_path / "store")

        async def first_life():
            config = ServeConfig(port=0, store_dir=store_dir)
            async with serve(config) as (_, client):
                await client.request(
                    "POST",
                    "/v1/sessions",
                    {"id": "persist", "atoms": ["a", "b", "c"], "formula": "a"},
                )
                await client.request(
                    "POST",
                    "/v1/sessions/persist/query",
                    {"op": "revise", "formula": "b & c"},
                )
                return await client.request("GET", "/v1/sessions/persist")

        async def second_life():
            config = ServeConfig(port=0, store_dir=store_dir)
            async with serve(config) as (_, client):
                state = await client.request("GET", "/v1/sessions/persist")
                ask = await client.request(
                    "POST",
                    "/v1/sessions/persist/query",
                    {"op": "ask", "formula": "b"},
                )
                return state, ask

        before = run(first_life())
        snapshot_path = Path(store_dir) / "persist.json"
        original_bytes = snapshot_path.read_bytes()

        after, ask = run(second_life())
        assert after == before  # the restored state is indistinguishable
        assert ask[1]["answer"] == "yes"
        # reads never rewrite; and a re-save of the loaded session is
        # byte-identical (canonical JSON + deterministic payload)
        assert snapshot_path.read_bytes() == original_bytes
        store = SessionStore(store_dir)
        store.save(store.load("persist", registry=ContextRegistry()))
        assert snapshot_path.read_bytes() == original_bytes

    def test_snapshot_stage_histogram_times_every_save(self, tmp_path):
        async def main():
            config = ServeConfig(port=0, store_dir=str(tmp_path / "store"))
            with obs.use() as registry:
                async with serve(config) as (_, client):
                    await client.request(
                        "POST", "/v1/sessions", {"id": "h", "atoms": ["a", "b"]}
                    )
                    for op in ("revise", "update", "ask"):  # ask never saves
                        await client.request(
                            "POST",
                            "/v1/sessions/h/query",
                            {"op": op, "formula": "a & !b"},
                        )
                return registry.snapshot()

        snapshot = run(main())
        stage = snapshot["histograms"]["serve.stage.snapshot_seconds"]
        assert stage["count"] == 3
        assert stage["count"] == snapshot["counters"]["serve.snapshots_written"]
        assert stage["min"] > 0

    def test_mutations_snapshot_and_delete_removes_file(self, tmp_path):
        store_dir = str(tmp_path / "store")

        async def main():
            config = ServeConfig(port=0, store_dir=store_dir)
            async with serve(config) as (_, client):
                await client.request(
                    "POST", "/v1/sessions", {"id": "d", "atoms": ["a"]}
                )
                existed = os.path.exists(os.path.join(store_dir, "d.json"))
                await client.request("DELETE", "/v1/sessions/d")
                return existed, os.path.exists(os.path.join(store_dir, "d.json"))

        existed, still_there = run(main())
        assert existed and not still_there

    def test_weighted_sessions_persist_too(self, tmp_path):
        store_dir = str(tmp_path / "store")

        async def main():
            config = ServeConfig(port=0, store_dir=store_dir)
            async with serve(config) as (_, client):
                await client.request(
                    "POST",
                    "/v1/sessions",
                    {"id": "w", "atoms": ["a", "b"], "weighted": True},
                )
                await client.request(
                    "POST",
                    "/v1/sessions/w/query",
                    {"op": "fit", "formula": "a", "weight": 3},
                )
                return await client.request("GET", "/v1/sessions/w")

        before = run(main())

        async def reload():
            config = ServeConfig(port=0, store_dir=store_dir)
            async with serve(config) as (_, client):
                return await client.request("GET", "/v1/sessions/w")

        assert run(reload()) == before

    def test_snapshot_failure_rolls_back_to_last_good_state(self, tmp_path):
        async def main():
            config = ServeConfig(port=0, store_dir=str(tmp_path / "store"))
            with obs.use() as registry:
                async with serve(config) as (server, client):
                    await client.request(
                        "POST",
                        "/v1/sessions",
                        {"id": "r", "atoms": ["a", "b"], "formula": "a & b"},
                    )
                    before = await client.request("GET", "/v1/sessions/r")
                    original = server.store.save

                    def failing_save(session):
                        raise OSError("disk full")

                    server.store.save = failing_save
                    failed = await client.request(
                        "POST",
                        "/v1/sessions/r/query",
                        {"op": "revise", "formula": "!a"},
                    )
                    server.store.save = original
                    after = await client.request("GET", "/v1/sessions/r")
                    snapshot = registry.snapshot()
            return before, failed, after, snapshot

        before, failed, after, snapshot = run(main())
        assert failed[0] == 500
        assert "rolled back" in failed[1]["error"]
        # the session was evicted and reloaded from the last good
        # snapshot: no divergence between memory, store, and the client
        assert after == before
        assert snapshot["counters"]["serve.snapshot_failures"] == 1

    @pytest.mark.parametrize("weighted", [False, True], ids=["boolean", "weighted"])
    def test_indented_snapshot_loads_and_resaves_compact(self, tmp_path, weighted):
        if weighted:
            session = WeightedSession("enc", atoms=["a", "b", "c"], formula="a & b")
            session.fit("!a", weight=2)
            session.arbitrate("c", weight=3)
            session.merge(["a | c", "!b"], weights=[1, 2])
        else:
            session = Session(
                "enc",
                atoms=["a", "b", "c"],
                formula="a & b",
                registry=ContextRegistry(),
            )
            session.revise("!a")
            session.update("c")
            session.fit("a | !c")
            session.arbitrate("!b")
            session.merge(["a", "!c"])
        store = SessionStore(str(tmp_path))
        path = Path(store.path_for("enc"))
        # the indented layout the store wrote before it went compact
        payload = {"version": SNAPSHOT_VERSION, "kind": "serve-session"}
        save_json_snapshot(str(path), {**payload, **session.to_payload()})
        indented = path.read_text()

        loaded = store.load("enc", registry=ContextRegistry())
        assert loaded.state() == session.state()
        store.save(loaded)
        text = path.read_text()
        compact = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
        assert text == compact + "\n"
        assert json.loads(text) == json.loads(indented)  # only whitespace differs

    def test_merge_of_sources_at_the_depth_cap_reloads(self, tmp_path):
        # each source is as deep as a request may be; the merge record,
        # their disjunction, is one level deeper and must still load
        deepest = "!" * (MAX_FORMULA_DEPTH - 1) + "a"
        session = Session("deep", atoms=["a", "b"], registry=ContextRegistry())
        session.merge([deepest, "b"])
        store = SessionStore(str(tmp_path))
        store.save(session)

        loaded = store.load("deep", registry=ContextRegistry())
        assert loaded.state() == session.state()
        assert loaded.kb.history == session.kb.history

    @pytest.mark.parametrize(
        "operators",
        [{"merge": "dalal"}, ["dalal"], "dalal"],
        ids=["unknown-role", "list", "string"],
    )
    def test_stored_operators_are_checked_like_a_create(self, tmp_path, operators):
        store_dir = str(tmp_path / "store")
        store = SessionStore(store_dir)
        session = Session("ops", atoms=["a", "b"], registry=ContextRegistry())
        path = Path(store.save(session))
        payload = json.loads(path.read_text())
        payload["operators"] = operators
        path.write_text(json.dumps(payload))
        with pytest.raises(ReproError, match="operator"):
            store.load("ops", registry=ContextRegistry())

        async def main():
            async with serve(ServeConfig(port=0, store_dir=store_dir)) as (_, client):
                return await client.request("GET", "/v1/sessions/ops")

        status, body = run(main())
        assert status == 400
        assert body["ok"] is False and "operator" in body["error"]

    def test_torn_snapshot_refused_on_load(self, tmp_path):
        from repro.errors import ReproError

        store = SessionStore(str(tmp_path))
        store.save(Session("t", atoms=["a", "b"], registry=ContextRegistry()))
        path = store.path_for("t")
        complete = Path(path).read_bytes()
        with open(path, "wb") as handle:
            handle.write(complete[: len(complete) // 2])  # simulate a tear
        with pytest.raises(ReproError, match="corrupt or truncated"):
            store.load("t", registry=ContextRegistry())


#: A short mixed script over ``LOG_ATOMS``: every persisted verb once.
LOG_ATOMS = ["a", "b", "c"]
LOG_SCRIPT = [
    ("revise", "!a"),
    ("update", "c"),
    ("arbitrate", "!b"),
    ("fit", "a | c"),
    ("merge", ["a", "!c"]),
]


def log_session(steps: int) -> Session:
    """The in-process replay of the first ``steps`` of ``LOG_SCRIPT``."""
    session = Session("log", atoms=LOG_ATOMS, formula="a & b", registry=ContextRegistry())
    for op, argument in LOG_SCRIPT[:steps]:
        getattr(session, op)(argument)
    return session


def damaged_log(store_dir: Path, line: int, edit) -> Path:
    """A session file whose base line holds one change record and whose
    second line appends another; ``edit`` rewrites the decoded ``line``."""
    session = log_session(1)
    store = SessionStore(str(store_dir))
    store.save(session)  # a store that never saw it writes the whole file
    session.update("c")
    path = Path(store.save(session))  # then appends one line
    lines = path.read_bytes().splitlines()
    assert len(lines) == 2
    lines[line - 1] = json.dumps(edit(json.loads(lines[line - 1]))).encode()
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path


_DELETE = object()


def _edit(*path, value=_DELETE):
    """An edit that sets the field at ``path`` to ``value``, or deletes it."""

    def edit(data):
        *parents, field = path
        target = data
        for key in parents:
            target = target[key]
        if value is _DELETE:
            del target[field]
        else:
            target[field] = value
        return data

    return edit


#: ``(line, edit)``: the malformed-snapshot edits of the base line, then
#: the same damage in the appended change record on line 2.
MALFORMED_LOGS = {
    "no-kb": (1, _edit("kb")),
    "no-masks": (1, _edit("kb", "masks")),
    "no-atoms": (1, _edit("kb", "atoms")),
    "list-kb": (1, _edit("kb", value=[])),
    "string-masks": (1, _edit("kb", "masks", value="0,1")),
    "entry-without-operation": (1, _edit("kb", "history", 0, "operation")),
    "record-without-operation": (2, _edit("operation")),
    "record-without-after": (2, _edit("after")),
    "record-without-incoming": (2, _edit("incoming")),
    "list-record": (2, lambda record: [record]),
    "string-after": (2, _edit("after", value="0,1")),
    "string-before": (2, _edit("before", value="0,1")),
}


class TestSessionLog:
    """The log-structured session file: appends, recovery, refusals."""

    def test_each_change_appends_one_line_after_the_create_snapshot(self, tmp_path):
        store = SessionStore(str(tmp_path))
        session = log_session(0)
        path = Path(store.save(session))
        create_line = path.read_bytes()
        for op, argument in LOG_SCRIPT:
            getattr(session, op)(argument)
            store.save(session)
        lines = path.read_bytes().splitlines(keepends=True)
        assert lines[0] == create_line
        assert [json.loads(line) for line in lines[1:]] == [
            change_record_to_dict(record) for record in session.kb.history
        ]
        loaded = SessionStore(str(tmp_path)).load("log", registry=ContextRegistry())
        assert loaded.to_payload() == session.to_payload()

    def test_a_right_nested_xor_in_the_history_loads_as_written(self, tmp_path):
        """The history stores each incoming formula as printed text, so
        ``a ^ (b ^ c)`` must print with its parentheses: read back as
        ``(a ^ b) ^ c`` it would print another record than the writer's."""
        store = SessionStore(str(tmp_path))
        session = log_session(0)
        store.save(session)
        session.revise("a ^ (b ^ c)")
        store.save(session)
        loaded = SessionStore(str(tmp_path)).load("log", registry=ContextRegistry())
        assert str(loaded.kb.history[-1].incoming) == "a ^ (b ^ c)"
        assert loaded.to_payload() == session.to_payload()

    @pytest.mark.parametrize("written", [0, 2])
    def test_a_session_the_store_did_not_write_is_rewritten_whole(
        self, tmp_path, written
    ):
        store = SessionStore(str(tmp_path))
        store.save(log_session(written))
        other = Session("log", atoms=["a", "b"], formula="!a", registry=ContextRegistry())
        other.revise("b")  # same id, but not the session the file holds
        store.save(other)
        loaded = SessionStore(str(tmp_path)).load("log", registry=ContextRegistry())
        assert loaded.to_payload() == other.to_payload()

    def test_every_cut_loads_a_prefix_or_is_refused(self, tmp_path):
        store_dir = tmp_path / "store"
        store = SessionStore(str(store_dir))
        session = log_session(0)
        path = Path(store.save(session))
        for op, argument in LOG_SCRIPT:
            getattr(session, op)(argument)
            store.save(session)
        complete = path.read_bytes()
        ends = [index + 1 for index, byte in enumerate(complete) if byte == ord("\n")]
        assert len(ends) == 1 + len(LOG_SCRIPT)
        for cut in range(len(complete) + 1):
            path.write_bytes(complete[:cut])
            fresh = SessionStore(str(store_dir))
            if cut < ends[0] - 1:  # inside the base line
                with pytest.raises(ReproError, match="corrupt or truncated"):
                    fresh.load("log", registry=ContextRegistry())
                continue
            kept = sum(1 for end in ends[1:] if end <= cut)  # whole records
            loaded = fresh.load("log", registry=ContextRegistry())
            expected = log_session(kept)
            assert loaded.to_payload() == expected.to_payload(), cut
            loaded.revise("b & !c")
            expected.revise("b & !c")
            fresh.save(loaded)
            reloaded = SessionStore(str(store_dir)).load("log", registry=ContextRegistry())
            assert reloaded.to_payload() == expected.to_payload(), cut
            data = path.read_bytes()
            if cut >= ends[0]:  # the torn tail was cut off, one line appended
                assert data[: ends[kept]] == complete[: ends[kept]], cut
                assert data.count(b"\n") == kept + 2, cut

    @pytest.mark.parametrize("case", sorted(MALFORMED_LOGS))
    def test_malformed_line_is_refused_naming_it(self, tmp_path, case):
        line, edit = MALFORMED_LOGS[case]
        store_dir = tmp_path / "store"
        path = damaged_log(store_dir, line, edit)
        with pytest.raises(ReproError, match=re.escape(f"line {line} of {path}")):
            SessionStore(str(store_dir)).load("log", registry=ContextRegistry())

        async def main():
            config = ServeConfig(port=0, store_dir=str(store_dir))
            async with serve(config) as (_, client):
                return await client.request("GET", "/v1/sessions/log")

        status, body = run(main())
        assert status == 400, body
        assert body["ok"] is False and f"line {line}" in body["error"]

    def test_a_constrained_contract_loads_to_the_trimmed_state(self, tmp_path):
        # The fold copies the last record's answer into the payload's
        # masks; a constrained contract answers outside Mod(IC).
        kb = KnowledgeBase("a & b", atoms=["a", "b", "c"], constraints="a -> b")
        payload = {"id": "ic", "kb": knowledge_base_to_dict(kb)}
        session = Session.from_payload(payload, registry=ContextRegistry())
        store = SessionStore(str(tmp_path))
        store.save(session)
        session.contract("a")
        path = Path(store.save(session))
        lines = path.read_bytes().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["after"] == [1, 2, 3, 5, 6, 7]
        loaded = SessionStore(str(tmp_path)).load("ic", registry=ContextRegistry())
        assert loaded.kb.model_set.masks == (2, 3, 6, 7)
        assert loaded.to_payload() == session.to_payload()

    def test_constraint_atoms_outside_the_atoms_are_a_bad_snapshot(self, tmp_path):
        store = SessionStore(str(tmp_path))
        path = Path(store.save(Session("ic", atoms=["a", "b"], registry=ContextRegistry())))
        payload = json.loads(path.read_text())
        payload["kb"]["constraints"] = "a -> z"
        path.write_text(json.dumps(payload) + "\n")
        with pytest.raises(ReproError, match=re.escape(f"bad session snapshot at {path}")):
            SessionStore(str(tmp_path)).load("ic", registry=ContextRegistry())

    @pytest.mark.parametrize(
        "edit",
        [
            _edit("steps", value="two"),
            _edit("kb", "atoms"),
            _edit("kb", "weights", value={"x": "1/1"}),
            _edit("kb", "weights", value={"1": "1/0"}),
        ],
        ids=["string-steps", "no-atoms", "bad-mask", "zero-denominator"],
    )
    def test_malformed_weighted_snapshot_is_refused(self, tmp_path, edit):
        store_dir = tmp_path / "store"
        session = WeightedSession("w", atoms=["a", "b"], formula="a")
        path = Path(SessionStore(str(store_dir)).save(session))
        path.write_text(json.dumps(edit(json.loads(path.read_text()))) + "\n")
        with pytest.raises(ReproError, match=re.escape(str(path))):
            SessionStore(str(store_dir)).load("w")

        async def main():
            config = ServeConfig(port=0, store_dir=str(store_dir))
            async with serve(config) as (_, client):
                return await client.request("GET", "/v1/sessions/w")

        status, body = run(main())
        assert status == 400, body

    def test_failed_append_rolls_back_and_the_next_appends_cleanly(
        self, tmp_path, monkeypatch
    ):
        from repro.serve import store as store_module

        store_dir = tmp_path / "store"
        real_append = store_module.append_json_lines

        def torn_append(path, values):
            data = "".join(canonical_json(value) + "\n" for value in values)
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(data[: len(data) // 2])  # the disk filled mid-write
            raise OSError("disk full")

        async def main():
            config = ServeConfig(port=0, store_dir=str(store_dir))
            async with serve(config) as (_, client):
                body = {"id": "log", "atoms": LOG_ATOMS, "formula": "a & b"}
                await client.request("POST", "/v1/sessions", body)
                query = "/v1/sessions/log/query"
                await client.request("POST", query, {"op": "revise", "formula": "!a"})
                before = await client.request("GET", "/v1/sessions/log")
                monkeypatch.setattr(store_module, "append_json_lines", torn_append)
                failed = await client.request(
                    "POST", query, {"op": "update", "formula": "b"}
                )
                monkeypatch.setattr(store_module, "append_json_lines", real_append)
                after = await client.request("GET", "/v1/sessions/log")
                retried = await client.request(
                    "POST", query, {"op": "update", "formula": "c"}
                )
                return before, failed, after, retried

        before, failed, after, retried = run(main())
        assert failed[0] == 500 and "rolled back" in failed[1]["error"]
        assert after == before  # reloaded: the torn line was never acknowledged
        expected = log_session(2)
        assert retried == (200, {"ok": True, "op": "update", "session": expected.state()})
        path = store_dir / "log.json"
        assert path.read_bytes().count(b"\n") == 3  # base + two whole records
        loaded = SessionStore(str(store_dir)).load("log", registry=ContextRegistry())
        assert loaded.to_payload() == expected.to_payload()

    def test_sigkill_keeps_every_acknowledged_mutation(self, tmp_path):
        import http.client

        rng = random.Random(18)
        vocabulary = random_vocabulary(4)
        atoms = list(vocabulary.atoms)
        initial, script = client_script(18, vocabulary, rounds=3)
        bodies = [body for body in script if body["op"] != "ask"]
        kills = sorted(rng.sample(range(1, len(bodies) - 1), 3))
        store_dir = str(tmp_path / "store")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")

        def start():
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--store", store_dir],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
            )
            banner = process.stdout.readline().strip()
            assert banner.startswith("serve: listening on "), banner
            return process, int(banner.rsplit(":", 1)[1])

        def kill(process):
            process.kill()
            process.wait(timeout=30)
            process.stdout.close()

        def send(port, method, path, body=None):
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
            connection.request(method, path, body=json.dumps(body) if body else None)
            return connection

        def call(port, method, path, body=None):
            connection = send(port, method, path, body)
            response = connection.getresponse()
            reply = (response.status, json.loads(response.read()))
            connection.close()
            return reply

        def replayed(applied):
            store = SessionStore(str(tmp_path / f"replay-{len(applied)}"))
            return replay_script("killed", atoms, initial, applied, store)[1].state()

        process, port = start()
        try:
            create = {"id": "killed", "atoms": atoms, "formula": initial}
            assert call(port, "POST", "/v1/sessions", create)[0] == 201
            acknowledged: list[dict] = []
            position = 0
            for kill_at in kills:
                for body in bodies[position:kill_at]:
                    status, _ = call(port, "POST", "/v1/sessions/killed/query", body)
                    assert status == 200
                    acknowledged.append(body)
                in_flight = bodies[kill_at]
                connection = send(port, "POST", "/v1/sessions/killed/query", in_flight)
                time.sleep(rng.choice([0.0, 0.002, 0.01]))
                kill(process)
                connection.close()
                position = kill_at + 1

                process, port = start()
                status, reply = call(port, "GET", "/v1/sessions/killed")
                assert status == 200
                candidates = [replayed(acknowledged), replayed(acknowledged + [in_flight])]
                assert reply["session"] in candidates, kill_at
                if reply["session"] == candidates[1] != candidates[0]:
                    acknowledged.append(in_flight)
        finally:
            kill(process)


class TestServeCommand:
    def test_cli_serve_smoke_sigterm_clean_shutdown(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        store_dir = str(tmp_path / "store")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--store",
                store_dir,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline().strip()
            assert banner.startswith("serve: listening on ")
            port = int(banner.rsplit(":", 1)[1])
            import http.client

            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            connection.request(
                "POST",
                "/v1/sessions",
                body=json.dumps({"id": "cli", "atoms": ["a", "b"]}),
            )
            created = connection.getresponse()
            assert created.status == 201
            created.read()
            connection.request(
                "POST",
                "/v1/sessions/cli/query",
                body=json.dumps({"op": "revise", "formula": "a & !b"}),
            )
            response = json.loads(connection.getresponse().read())
            assert response["session"]["formula"] == "a & !b"
            connection.close()
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
            assert process.returncode == 0, stderr
            assert "serve: clean shutdown" in stdout
            assert os.path.exists(os.path.join(store_dir, "cli.json"))
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
