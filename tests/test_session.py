"""Tests for the session core: dispatch, the context registry, sessions.

The load-bearing guarantee is *answer identity*: resolving through the
shared registry must never change what is computed, only where the
arithmetic happens.  Every block here pins some face of that — context
results vs direct ``operator.apply``, session verbs vs plain
``KnowledgeBase`` verbs, payload round-trips — plus the registry's
LRU/eviction/isolation mechanics.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.errors import ReproError
from repro.kb.knowledge_base import KnowledgeBase
from repro.logic.enumeration import models
from repro.logic.interpretation import Vocabulary
from repro.logic.parser import parse
from repro.logic.random_formulas import random_satisfiable_formula, random_vocabulary
from repro.operators.revision import DalalRevision, SatohRevision
from repro.operators.update import WinslettUpdate
from repro.session import (
    AUTO,
    DENSE,
    SYMBOLIC,
    ContextRegistry,
    Session,
    WeightedSession,
    ensure_impl,
    resolve_backend,
)
from repro.session.registry import context_key
from repro.session.session import operator_by_name, validate_session_id
from repro.symbolic import supports_symbolic

VOC3 = Vocabulary(["a", "b", "c"])
VOC2 = Vocabulary(["a", "b"])

#: Formula pairs exercising disjoint, overlapping, and nested cases.
PAIRS = [
    ("a & b & c", "!c"),
    ("a | b", "!a & !b"),
    ("a & (b -> c)", "b & !c"),
    ("!a", "a | (b & c)"),
]


class TestDispatch:
    def test_ensure_impl_accepts_known(self):
        for impl in (AUTO, DENSE, SYMBOLIC):
            assert ensure_impl(impl) == impl

    def test_ensure_impl_rejects_unknown(self):
        with pytest.raises(ReproError, match="unknown impl"):
            ensure_impl("vectorized")

    def test_ensure_impl_respects_allowed_subset(self):
        with pytest.raises(ReproError, match="expected 'dense' or 'symbolic'"):
            ensure_impl(AUTO, (DENSE, SYMBOLIC))

    def test_forced_backends_pass_through(self):
        operator = DalalRevision()
        assert resolve_backend(operator, VOC3, DENSE) == DENSE
        assert resolve_backend(operator, VOC3, SYMBOLIC) == SYMBOLIC

    def test_auto_resolves_dense_below_threshold(self):
        assert resolve_backend(DalalRevision(), VOC3, AUTO) == DENSE

    def test_auto_resolves_symbolic_above_threshold(self, monkeypatch):
        monkeypatch.setenv("REPRO_SYMBOLIC_THRESHOLD", "3")
        operator = DalalRevision()
        assert supports_symbolic(operator)
        assert resolve_backend(operator, VOC3, AUTO) == SYMBOLIC

    def test_auto_never_picks_symbolic_for_unsupported_operator(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SYMBOLIC_THRESHOLD", "3")
        operator = operator_by_name("priority")
        if supports_symbolic(operator):
            pytest.skip("priority fitting grew a symbolic execution")
        assert resolve_backend(operator, VOC3, AUTO) == DENSE


class TestContextRegistry:
    def test_same_configuration_shares_one_context(self):
        registry = ContextRegistry()
        first = registry.context_for(DalalRevision(), VOC3, DENSE)
        second = registry.context_for(DalalRevision(), VOC3, DENSE)
        assert first is second
        info = registry.cache_info()
        assert info.hits == 1 and info.misses == 1

    def test_cross_vocabulary_isolation(self):
        registry = ContextRegistry()
        ctx3 = registry.context_for(DalalRevision(), VOC3)
        ctx2 = registry.context_for(DalalRevision(), VOC2)
        assert ctx3 is not ctx2
        assert ctx3.vocabulary == VOC3 and ctx2.vocabulary == VOC2

    def test_cross_operator_isolation(self):
        registry = ContextRegistry()
        assert registry.context_for(DalalRevision(), VOC3) is not (
            registry.context_for(SatohRevision(), VOC3)
        )

    def test_eviction_order_is_lru(self):
        registry = ContextRegistry(max_contexts=2)
        dalal = registry.context_for(DalalRevision(), VOC3, DENSE)
        registry.context_for(SatohRevision(), VOC3, DENSE)
        # touch dalal so satoh is the least recently used
        assert registry.context_for(DalalRevision(), VOC3, DENSE) is dalal
        registry.context_for(WinslettUpdate(), VOC3, DENSE)  # evicts satoh
        assert registry.cache_info().evictions == 1
        assert registry.context_for(DalalRevision(), VOC3, DENSE) is dalal
        rebuilt = registry.context_for(SatohRevision(), VOC3, DENSE)
        assert rebuilt.operator.name == "satoh"  # rebuilt after eviction

    def test_context_key_separates_backends(self):
        operator = DalalRevision()
        assert context_key(operator, VOC3, DENSE) != context_key(
            operator, VOC3, SYMBOLIC
        )


#: SHA-256 over every ``state()`` of :func:`pinned_session_digest`,
#: computed before the bitset kernels replaced Winslett's pairwise loop
#: and Quine–McCluskey below 13 atoms.
PINNED_SESSION_DIGEST = "5736d7a07cd59b19ee63e53a09f440ed545f88a24adf47f57fc157f0f8e06814"


def pinned_session_digest(seed: int = 7, mutations: int = 128) -> str:
    """One 8-atom session shaped like the served write benchmark: satisfiable
    depth-3 formulas, revise/update/arbitrate/fit in rotation, and the
    compact JSON of ``state()`` (the prime-implicant cover) after each step."""
    vocabulary = random_vocabulary(8)
    rng = random.Random(seed)

    def formula() -> str:
        return str(random_satisfiable_formula(vocabulary, 3, rng))

    session = Session(
        "pin", atoms=list(vocabulary.atoms), formula=formula(), registry=ContextRegistry()
    )
    digest = hashlib.sha256()
    for step in range(mutations + 1):
        if step:
            verb = ("revise", "update", "arbitrate", "fit")[(step - 1) % 4]
            getattr(session, verb)(formula())
        state = json.dumps(session.state(), sort_keys=True, separators=(",", ":"))
        digest.update(state.encode() + b"\n")
    return digest.hexdigest()


class TestAnswerIdentity:
    """Contexts must answer exactly like the direct operator paths."""

    def test_serve_write_shaped_session_matches_pinned_digest(self):
        # Pinned across commits: a kernel that changed a Winslett result
        # or a cover on every path at once would still pass the
        # path-against-path tests below.
        assert pinned_session_digest() == PINNED_SESSION_DIGEST

    @pytest.mark.parametrize(
        "name", ["dalal", "satoh", "borgida", "weber", "winslett", "forbus", "odist"]
    )
    @pytest.mark.parametrize("psi_text,mu_text", PAIRS)
    def test_dense_context_matches_direct_apply(self, name, psi_text, mu_text):
        operator = operator_by_name(name)
        registry = ContextRegistry()
        context = registry.context_for(operator, VOC3, DENSE)
        psi, mu = parse(psi_text), parse(mu_text)
        via_context = context.apply_model_sets(models(psi, VOC3), models(mu, VOC3))
        direct = operator.apply(psi, mu, VOC3, impl=DENSE)
        assert via_context == models(direct, VOC3)

    @pytest.mark.parametrize("psi_text,mu_text", PAIRS)
    def test_symbolic_context_matches_direct_apply(self, psi_text, mu_text):
        operator = DalalRevision()
        registry = ContextRegistry()
        context = registry.context_for(operator, VOC3, SYMBOLIC)
        psi, mu = parse(psi_text), parse(mu_text)
        via_context = context.apply_model_sets(models(psi, VOC3), models(mu, VOC3))
        direct = operator.apply(psi, mu, VOC3, impl=SYMBOLIC)
        assert via_context == models(direct, VOC3)

    @pytest.mark.parametrize("psi_text,mu_text", PAIRS)
    def test_backends_agree_model_set_level(self, psi_text, mu_text):
        operator = DalalRevision()
        registry = ContextRegistry()
        psi = models(parse(psi_text), VOC3)
        mu = models(parse(mu_text), VOC3)
        dense = registry.context_for(operator, VOC3, DENSE)
        symbolic = registry.context_for(operator, VOC3, SYMBOLIC)
        assert dense.apply_model_sets(psi, mu) == symbolic.apply_model_sets(
            psi, mu
        )


class TestSession:
    def test_ids_are_validated(self):
        with pytest.raises(ReproError, match="invalid session id"):
            Session("../escape", atoms=["a"])
        with pytest.raises(ReproError, match="invalid session id"):
            validate_session_id(".hidden")
        assert validate_session_id("jury-1.v2_x") == "jury-1.v2_x"

    def test_unknown_operator_role_rejected(self):
        with pytest.raises(ReproError, match="unknown operator roles"):
            Session("s", atoms=["a"], operators={"merge": "dalal"})

    def test_unknown_operator_name_rejected(self):
        with pytest.raises(ReproError, match="unknown operator"):
            Session("s", atoms=["a"], operators={"revision": "nope"})

    @pytest.mark.parametrize("verb", ["revise", "update", "fit", "arbitrate"])
    def test_verbs_match_plain_knowledge_base(self, verb):
        session = Session(
            "s", atoms=["a", "b", "c"], formula="a & b & (a & b -> c)"
        )
        plain = KnowledgeBase("a & b & (a & b -> c)", atoms=["a", "b", "c"])
        getattr(session, verb)("!c")
        plain = getattr(plain, verb)("!c")
        assert session.kb.model_set == plain.model_set
        assert session.kb.history[-1].operation == plain.history[-1].operation
        assert session.kb.history[-1].operator == plain.history[-1].operator

    def test_contract_matches_plain_knowledge_base(self):
        session = Session("s", atoms=["a", "b"], formula="a & b")
        plain = KnowledgeBase("a & b", atoms=["a", "b"]).contract("a")
        session.contract("a")
        assert session.kb.model_set == plain.model_set

    def test_merge_matches_arbitration_merge_models(self):
        from repro.core.arbitration import ArbitrationOperator

        session = Session("s", atoms=["a", "b"], formula="a & b")
        before = session.kb.model_set
        session.merge(["a & !b", "!a & b"])
        expected = ArbitrationOperator().merge_models(
            [
                before,
                models(parse("a & !b"), VOC2),
                models(parse("!a & b"), VOC2),
            ]
        )
        assert session.kb.model_set == expected
        record = session.kb.history[-1]
        assert record.operation == "merge"
        assert record.before == before and record.after == expected

    def test_merge_requires_sources(self):
        with pytest.raises(ReproError, match="at least one source"):
            Session("s", atoms=["a"]).merge([])

    def test_restored_constrained_session_keeps_ic_through_merge(self):
        """A snapshot-restored KB with integrity constraints must keep them
        across merge: the consensus is fitted onto Mod(IC), and the next
        change is still confined to it."""
        from repro.core.fitting import ReveszFitting
        from repro.kb.serialize import knowledge_base_to_dict

        constrained = KnowledgeBase("a & b", atoms=["a", "b", "c"], constraints="!c")
        session = Session.from_payload(
            {"id": "s", "kb": knowledge_base_to_dict(constrained)}
        )
        before = session.kb.model_set
        session.merge(["c", "!a & c"])
        ic = models(parse("!c"), VOC3)
        union = before.union(models(parse("c"), VOC3)).union(
            models(parse("!a & c"), VOC3)
        )
        assert session.kb.constraints == parse("!c")
        assert session.kb.model_set == ReveszFitting().apply_models(union, ic)
        assert session.kb.model_set.issubset(ic)
        assert session.kb.history[-1].operation == "merge"
        session.revise("c")
        assert session.kb.model_set.issubset(ic)

    def test_sessions_share_registry_contexts(self):
        registry = ContextRegistry()
        Session("s1", atoms=["a", "b"], registry=registry).revise("a")
        Session("s2", atoms=["a", "b"], registry=registry).revise("!a")
        info = registry.cache_info()
        assert info.misses == 1  # one dalal/ab context built...
        assert info.hits >= 1  # ...and reused by the second session

    def test_session_shares_the_context_rebuilt_after_eviction(self):
        """Sessions keep no context of their own: once the LRU evicts a
        context and a later session rebuilds it, an older session's next
        change is a registry hit on that rebuilt context, so one key never
        has two live engines."""
        registry = ContextRegistry(max_contexts=1)
        s1 = Session("s1", atoms=["a", "b"], registry=registry)
        s1.revise("a")
        Session("s2", atoms=["x", "y"], registry=registry).revise("x")
        Session("s3", atoms=["a", "b"], registry=registry).revise("!a")
        before = registry.cache_info()
        assert before.evictions == 2 and before.misses == 3
        s1.revise("b")
        after = registry.cache_info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_state_shape(self):
        session = Session("s", atoms=["a", "b"], formula="a | b")
        state = session.state()
        assert state["id"] == "s" and state["kind"] == "boolean"
        assert state["atoms"] == ["a", "b"] and state["steps"] == 0
        assert state["satisfiable"] is True and state["models"] == 3

    def test_payload_round_trip_preserves_state_and_history(self):
        session = Session("s", atoms=["a", "b", "c"], formula="a & b")
        session.revise("!a")
        session.merge(["b & c"])
        restored = Session.from_payload(session.to_payload())
        assert restored.session_id == "s"
        assert restored.kb.model_set == session.kb.model_set
        assert [r.operation for r in restored.kb.history] == ["revise", "merge"]
        # the restored session keeps working through the registry
        restored.update("c")
        assert restored.kb.ask("c") == "yes"

    def test_ask_three_valued(self):
        session = Session("s", atoms=["a", "b"], formula="a")
        assert session.ask("a") == "yes"
        assert session.ask("!a") == "no"
        assert session.ask("b") == "unknown"


class TestWeightedSession:
    def test_arbitrate_matches_direct_weighted_operator(self):
        from repro.core.weighted import (
            WeightedArbitration,
            WeightedKnowledgeBase,
        )

        session = WeightedSession("w", atoms=["a", "b"], formula="a", weight=2)
        session.arbitrate("!a & b", weight=1)
        left = WeightedKnowledgeBase.from_formula(parse("a"), VOC2, weight=2)
        right = WeightedKnowledgeBase.from_formula(
            parse("!a & b"), VOC2, weight=1
        )
        direct = WeightedArbitration().apply(left, right)
        assert dict(session.wkb.items()) == dict(direct.items())

    def test_merge_weights_must_match_sources(self):
        session = WeightedSession("w", atoms=["a"])
        with pytest.raises(ReproError, match="one-to-one"):
            session.merge(["a", "!a"], weights=[1])

    def test_payload_round_trip(self):
        session = WeightedSession("w", atoms=["a", "b"], formula="a | b")
        session.fit("a", weight=3)
        restored = WeightedSession.from_payload(session.to_payload())
        assert dict(restored.wkb.items()) == dict(session.wkb.items())
        assert restored.state() == session.state()

    def test_state_counts_steps(self):
        session = WeightedSession("w", atoms=["a"])
        session.fit("a")
        session.arbitrate("!a")
        assert session.state()["steps"] == 2
