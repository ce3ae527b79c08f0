"""The verb tables: one op table per knowledge-state family.

Every caller that turns an op name into a verb call — the server, the
shell, the soak harness and the load replay — looks the name up in the
family's table (``repro.kb.knowledge_base.VERBS`` for Boolean sessions,
``WeightedSession.verbs`` for weighted ones).  These tests pin that each
caller accepts exactly the ops its table lists, that the served ``erase``
is the library's, and they fuzz query bodies through the server's job
path so that a malformed body answers 400, never 500.
"""

from __future__ import annotations

import asyncio
import io
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.kb.knowledge_base import VERBS, KnowledgeBase
from repro.kb.serialize import knowledge_base_to_dict
from repro.kb.shell import Shell
from repro.logic.parser import parse
from repro.serve import ArbitrationServer, ServeClient, ServeConfig, SessionStore
from repro.serve.server import _Job
from repro.session import ContextRegistry, Session, WeightedSession
from repro.soak.harness import _apply_step
from repro.soak.stream import SoakStep

from test_serve import MALFORMED_BODIES

ATOMS = ["a", "b"]
#: Names no table lists: attributes of the knowledge base or the session
#: that an unguarded ``getattr`` would reach, and plain strangers.
UNLISTED = ["entails", "to_formula", "query", "state", "kb", "__init__", "frobnicate"]
ALL_OPS = sorted(set(VERBS) | set(WeightedSession.verbs))


def _server() -> ArbitrationServer:
    """An unstarted server holding a Boolean session ``b`` and a weighted
    session ``w`` over a, b; jobs run in process through the worker's
    ``_process_jobs``, so exceptions map to statuses exactly as served."""
    server = ArbitrationServer(ServeConfig(port=0), registry=ContextRegistry())
    for body in ({"id": "b", "atoms": ATOMS}, {"id": "w", "atoms": ATOMS, "weighted": True}):
        [(status, _)] = server._process_jobs([_Job("create", None, body, None)])
        assert status == 201
    return server


def _query(server: ArbitrationServer, session_id: str, body: dict):
    [result] = server._process_jobs([_Job("query", session_id, body, None)])
    return result


class TestEveryCallerFollowsTheTable:
    @pytest.mark.parametrize("op", ALL_OPS + UNLISTED)
    def test_server(self, op):
        server = _server()
        body = {"op": op, "formula": "a", "sources": ["a", "!b"]}
        for session_id, verbs in (("b", VERBS), ("w", WeightedSession.verbs)):
            status, payload = _query(server, session_id, body)
            if op in verbs:
                assert status == 200, payload
            else:
                assert status == 400 and "unknown op" in payload["error"], payload

    @pytest.mark.parametrize("op", ALL_OPS + UNLISTED)
    def test_shell(self, op):
        out = io.StringIO()
        shell = Shell(out)
        shell.execute("init a & b")
        shell.execute(f"{op} a")
        last = out.getvalue().splitlines()[-1]
        if op in VERBS:
            assert last.startswith("ok: ") or last in ("yes", "no", "unknown"), last
        else:
            assert "unknown command" in last, last

    @pytest.mark.parametrize("op", ALL_OPS + UNLISTED)
    def test_soak_harness(self, op):
        kb = KnowledgeBase("a & b", atoms=ATOMS)
        step = SoakStep(index=0, kind=op, formulas=(parse("!a"), parse("b")))
        if op not in VERBS:
            with pytest.raises(ReproError, match="unknown op"):
                _apply_step(kb, step)
            return
        after = _apply_step(kb, step)
        assert isinstance(after, KnowledgeBase)
        if op == "ask":
            assert after is kb
        elif op == "merge":
            assert after == kb.merge(step.formulas)
        else:
            assert after == getattr(kb, op)(step.formulas[0])


class TestServedErase:
    """The Boolean table lists ``erase``, so a served session erases as
    ``KnowledgeBase.erase`` does, under integrity constraints too."""

    @pytest.mark.parametrize("constraints", [None, "a -> b"])
    def test_served_erase_equals_the_library_erase(self, tmp_path, constraints):
        plain = KnowledgeBase("a & b", atoms=["a", "b", "c"], constraints=constraints)
        # A served session gets constraints only from a stored snapshot.
        SessionStore(str(tmp_path)).save(
            Session.from_payload(
                {"id": "e", "kb": knowledge_base_to_dict(plain)}, registry=ContextRegistry()
            )
        )

        async def main():
            server = ArbitrationServer(ServeConfig(port=0, store_dir=str(tmp_path)))
            await server.start()
            client = ServeClient(server.host, server.port)
            try:
                return await client.request(
                    "POST", "/v1/sessions/e/query", {"op": "erase", "formula": "a"}
                )
            finally:
                await client.close()
                await server.stop()

        status, body = asyncio.run(main())
        assert status == 200, body
        expected = plain.erase("a")
        assert body["session"]["models"] == len(expected.model_set)
        assert body["session"]["formula"] == str(expected.to_formula())
        loaded = SessionStore(str(tmp_path)).load("e", registry=ContextRegistry())
        assert loaded.kb.model_set == expected.model_set
        record, want = loaded.kb.history[-1], expected.history[-1]
        assert (record.operation, record.operator, record.incoming) == (
            want.operation,
            want.operator,
            want.incoming,
        )
        assert (record.before, record.after) == (want.before, want.after)


# -- the query-body fuzzer -----------------------------------------------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=5,
)
OPS = st.sampled_from(ALL_OPS + UNLISTED)
GOOD_FORMULAS = st.sampled_from(["a", "!a", "a & b", "a | !b", "b -> a", "a & !a"])
#: The last two name an atom outside the vocabulary and do not parse.
FORMULAS = GOOD_FORMULAS | st.sampled_from(["x", "a &"])
WEIGHTS = st.integers(-1, 4) | st.sampled_from(["3", "1.5", 2.5, True, math.inf])
#: Bodies a client means well with, so that changes apply and chain ...
WELL_FORMED = st.fixed_dictionaries(
    {
        "op": OPS,
        "formula": GOOD_FORMULAS,
        "sources": st.lists(GOOD_FORMULAS, min_size=1, max_size=3),
    },
    optional={"weight": WEIGHTS, "weights": st.lists(WEIGHTS, min_size=1, max_size=3)},
)
#: ... and bodies with any JSON value in any field.
ARBITRARY = st.fixed_dictionaries(
    {"op": OPS | JSON_VALUES},
    optional={
        "formula": FORMULAS | JSON_VALUES,
        "sources": st.lists(FORMULAS, min_size=1, max_size=3) | JSON_VALUES,
        "weight": WEIGHTS | JSON_VALUES,
        "weights": st.lists(WEIGHTS | JSON_VALUES, max_size=3) | JSON_VALUES,
    },
)
BODIES = WELL_FORMED | ARBITRARY


def _direct_call(session, body: dict):
    """The body's verb called on an in-process session, the weights
    coerced with ``int`` as the server documents."""
    op = body["op"]
    if op == "ask":
        return session.ask(body["formula"])
    if op == "merge":
        if isinstance(session, WeightedSession) and body.get("weights") is not None:
            return session.merge(body["sources"], weights=[int(w) for w in body["weights"]])
        return session.merge(body["sources"])
    if isinstance(session, WeightedSession):
        return getattr(session, op)(body["formula"], weight=int(body.get("weight", 1)))
    return getattr(session, op)(body["formula"])


#: The query entries of the malformed-body corpus, as decoded bodies;
#: the fuzzer sends each body to both sessions.
SEEDS = [json.loads(raw) for path, raw in MALFORMED_BODIES.values() if path.endswith("/query")]


def _seeded(test):
    for body in SEEDS:
        test = example(bodies=[body])(test)
    return test


class TestQueryBodyFuzz:
    @settings(max_examples=150, deadline=None)
    @given(bodies=st.lists(BODIES, min_size=1, max_size=3))
    @_seeded
    def test_query_bodies_answer_200_or_400_and_mutate_as_direct_calls(self, bodies):
        server = _server()
        direct = {
            "b": Session("b", atoms=ATOMS, registry=ContextRegistry()),
            "w": WeightedSession("w", atoms=ATOMS),
        }
        for body in bodies:
            for session_id, session in direct.items():
                status, payload = _query(server, session_id, body)
                assert status in (200, 400), (session_id, body, payload)
                if status == 200:
                    answer = _direct_call(session, body)
                    if body["op"] == "ask":
                        assert payload["answer"] == answer
                    else:
                        assert payload["session"] == session.state()
                served = server._sessions[session_id]
                assert served.to_payload() == session.to_payload(), (session_id, body)
