"""Unit tests for integrity constraints on the KnowledgeBase layer."""

import pytest

from repro.errors import VocabularyError
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.serialize import knowledge_base_from_dict, knowledge_base_to_dict
from repro.logic.enumeration import models


class TestConstrainedConstruction:
    def test_initial_state_respects_constraints(self):
        kb = KnowledgeBase("a | b", constraints="a -> b")
        assert kb.entails("a -> b")
        # The a&!b model is filtered out on construction.
        assert not kb.consistent_with("a & !b")

    def test_constraints_extend_vocabulary(self):
        kb = KnowledgeBase("a", constraints="a -> b")
        assert set(kb.vocabulary.atoms) == {"a", "b"}

    def test_constraints_property(self):
        kb = KnowledgeBase("a", constraints="a -> b")
        assert kb.constraints is not None
        assert KnowledgeBase("a").constraints is None

    def test_constraints_must_fit_vocabulary(self):
        with pytest.raises(VocabularyError):
            KnowledgeBase("a", atoms=["a"], constraints="a -> b")

    def test_contradictory_constraints_empty_kb(self):
        kb = KnowledgeBase("a", constraints="a & !a")
        assert not kb.satisfiable


class TestConstrainedChanges:
    def test_revise_stays_inside_constraints(self):
        kb = KnowledgeBase("a & b", constraints="a -> b")
        changed = kb.revise("!b")
        assert changed.entails("a -> b")
        assert changed.entails("!b")
        # To drop b while keeping a -> b, a must go too.
        assert changed.entails("!a")

    def test_update_stays_inside_constraints(self):
        kb = KnowledgeBase("a & b", constraints="a -> b")
        changed = kb.update("!b")
        assert changed.entails("(a -> b) & !b")

    def test_constraints_propagate_through_changes(self):
        kb = KnowledgeBase("a & b", constraints="a -> b").revise("!b").revise("a")
        assert kb.constraints is not None
        assert kb.entails("a -> b")
        # Re-asserting a under a -> b forces b back.
        assert kb.entails("a & b")

    def test_arbitrate_fits_inside_constraints(self):
        """Constrained arbitration = (ψ ∨ φ) ▷ IC: the consensus world
        must satisfy the integrity constraints even if neither voice does."""
        kb = KnowledgeBase("a & b & !c", atoms=["a", "b", "c"],
                           constraints="c")
        # Construction already enforces c: the voice a&b&!c is filtered to ⊥,
        # so build from a state inside the constraints instead.
        kb = KnowledgeBase("a & b & c", atoms=["a", "b", "c"], constraints="c")
        changed = kb.arbitrate("!a & !b & c")
        assert changed.satisfiable
        assert changed.entails("c")

    def test_constrained_arbitration_differs_from_free(self):
        free = KnowledgeBase("a & b", atoms=["a", "b"]).arbitrate("!a & !b")
        constrained = KnowledgeBase(
            "a & b", atoms=["a", "b"], constraints="a <-> b"
        ).arbitrate("!a & !b")
        assert constrained.entails("a <-> b")
        assert not free.entails("a <-> b")

    def test_history_names_constrained_operator(self):
        kb = KnowledgeBase("a & b", constraints="a | b").arbitrate("!a & b")
        assert "constrained" in kb.history[-1].operator


class TestUnconstrainedBackwardsCompatibility:
    def test_no_constraints_same_as_before(self):
        free = KnowledgeBase("a & b").arbitrate("!a & !b")
        # The middle shell between the two voices: exactly {a} and {b}.
        assert {frozenset(i.true_atoms) for i in free.model_set} == {
            frozenset({"a"}),
            frozenset({"b"}),
        }


def _trimmed_kb():
    """A constrained state whose contraction leaves Mod(IC): the measured
    case every trimming test pins."""
    return KnowledgeBase("a & b", atoms=["a", "b", "c"], constraints="a -> b")


class TestTrimmedChanges:
    """A constrained contract or erase answers outside Mod(IC); the
    record keeps that answer and the knowledge base holds its part
    inside Mod(IC)."""

    @pytest.mark.parametrize("verb", ["contract", "erase"])
    def test_record_keeps_the_answer_and_the_kb_holds_it_inside_ic(self, verb):
        kb = getattr(_trimmed_kb(), verb)("a")
        assert kb.history[-1].after.masks == (1, 2, 3, 5, 6, 7)
        assert kb.model_set.masks == (2, 3, 6, 7)
        assert kb.entails("a -> b")

    def test_before_is_the_previous_state_not_the_previous_answer(self):
        kb = _trimmed_kb()
        mod_ic = models(kb.constraints, kb.vocabulary)
        for verb, argument in [
            ("revise", "c"),
            ("contract", "a"),
            ("update", "a | !c"),
            ("erase", "b"),
            ("arbitrate", "!b & c"),
            ("fit", "a"),
            ("merge", ["!a", "c"]),
        ]:
            kb = getattr(kb, verb)(argument)
        history = kb.history
        for index in range(1, len(history)):
            previous = history[index - 1].after.intersection(mod_ic)
            assert history[index].before == previous, index
        # Right after the contract its answer was trimmed.
        assert history[1].operation == "contract"
        assert history[2].before != history[1].after

    def test_a_load_of_the_untrimmed_answer_holds_the_trimmed_state(self):
        kb = _trimmed_kb().contract("a")
        payload = knowledge_base_to_dict(kb)
        assert payload["masks"] == [2, 3, 6, 7]
        assert knowledge_base_from_dict(payload).model_set.masks == (2, 3, 6, 7)
        # A session file's fold puts the last record's answer into masks.
        payload["masks"] = payload["history"][-1]["after"]
        loaded = knowledge_base_from_dict(payload)
        assert loaded.model_set.masks == (2, 3, 6, 7)
        assert loaded == kb and loaded.history == kb.history
        assert loaded.contract("a").model_set == kb.contract("a").model_set


class TestConstrainedLoad:
    def test_constraint_atoms_outside_the_atoms_are_refused(self):
        payload = knowledge_base_to_dict(_trimmed_kb())
        payload["constraints"] = "a -> z"
        with pytest.raises(VocabularyError, match="z"):
            knowledge_base_from_dict(payload)

    def test_constraints_carry_through_a_load(self):
        kb = _trimmed_kb().revise("!b")
        loaded = knowledge_base_from_dict(knowledge_base_to_dict(kb))
        assert str(loaded.constraints) == str(kb.constraints)
        assert loaded.revise("a").model_set == kb.revise("a").model_set
        assert loaded.revise("a").entails("a & b")
