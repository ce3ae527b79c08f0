"""Tests for the serving layer: protocol, batching, admission, persistence.

All async tests run through ``asyncio.run`` inside plain pytest functions
(the suite has no async plugin, deliberately — the stdlib is enough).
Every server is bound to port 0 on loopback and torn down in the test.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import asynccontextmanager
from pathlib import Path

import pytest

from repro import obs
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.serialize import save_json_snapshot
from repro.logic.parser import MAX_FORMULA_DEPTH
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
        # all eight share one vocabulary, so seven coalesce onto the first
        assert counters["serve.coalesced"] == queued - 1

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

            def blocked(jobs, group_count):
                release.wait(10)
                return original(jobs, group_count)

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
