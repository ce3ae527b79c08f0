"""Unit tests for JSON serialization of knowledge-base state."""

import json
from fractions import Fraction

import pytest
from hypothesis import given

from repro.core.weighted import WeightedKnowledgeBase
from repro.errors import ReproError
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.serialize import (
    knowledge_base_from_json,
    knowledge_base_to_json,
    model_set_from_dict,
    model_set_to_dict,
    weighted_kb_from_dict,
    weighted_kb_to_dict,
)
from repro.logic.interpretation import Vocabulary
from repro.logic.semantics import ModelSet

from _strategies import model_sets

VOCAB = Vocabulary(["a", "b", "c"])


class TestModelSetRoundTrip:
    @given(model_sets(VOCAB))
    def test_round_trip(self, ms):
        assert model_set_from_dict(model_set_to_dict(ms)) == ms

    def test_dict_is_json_compatible(self):
        ms = ModelSet(VOCAB, [0, 5])
        text = json.dumps(model_set_to_dict(ms))
        assert model_set_from_dict(json.loads(text)) == ms

    def test_wrong_kind_rejected(self):
        with pytest.raises(ReproError):
            model_set_from_dict({"kind": "weighted-kb"})


class TestWeightedKbRoundTrip:
    def test_round_trip_exact_fractions(self):
        kb = WeightedKnowledgeBase(
            VOCAB, {0: Fraction(1, 3), 5: Fraction(7, 2), 2: 4}
        )
        restored = weighted_kb_from_dict(weighted_kb_to_dict(kb))
        assert restored.equivalent(kb)
        assert restored.weight_of_mask(0) == Fraction(1, 3)

    def test_json_compatible(self):
        kb = WeightedKnowledgeBase(VOCAB, {1: 9, 2: 2})
        text = json.dumps(weighted_kb_to_dict(kb))
        assert weighted_kb_from_dict(json.loads(text)).equivalent(kb)

    def test_wrong_kind_rejected(self):
        with pytest.raises(ReproError):
            weighted_kb_from_dict({"kind": "model-set"})


class TestKnowledgeBaseRoundTrip:
    def test_state_preserved(self):
        kb = KnowledgeBase("a & (b | c)", atoms=["a", "b", "c"])
        restored = knowledge_base_from_json(knowledge_base_to_json(kb))
        assert restored.model_set == kb.model_set
        assert restored.vocabulary == kb.vocabulary

    def test_history_preserved(self):
        kb = KnowledgeBase("a & b").revise("!a").arbitrate("a | b")
        restored = knowledge_base_from_json(knowledge_base_to_json(kb))
        assert len(restored.history) == 2
        assert restored.history[0].operation == "revise"
        assert restored.history[1].operation == "arbitrate"
        assert restored.history[0].before == kb.history[0].before

    def test_unsatisfiable_kb_round_trips(self):
        kb = KnowledgeBase("a & !a")
        restored = knowledge_base_from_json(knowledge_base_to_json(kb))
        assert not restored.satisfiable

    def test_operators_reattached(self):
        from repro.operators.revision import SatohRevision

        kb = KnowledgeBase("a & b")
        restored = knowledge_base_from_json(
            knowledge_base_to_json(kb), revision=SatohRevision()
        )
        changed = restored.revise("!a")
        assert changed.history[-1].operator == "satoh"

    def test_wrong_kind_rejected(self):
        with pytest.raises(ReproError):
            knowledge_base_from_json(json.dumps({"kind": "model-set"}))

    def test_constraints_survive_round_trip(self):
        kb = KnowledgeBase("a & b", constraints="a -> b")
        restored = knowledge_base_from_json(knowledge_base_to_json(kb))
        assert restored.constraints is not None
        # Constraints must keep binding future changes after the reload.
        changed = restored.revise("!b")
        assert changed.entails("a -> b")
        assert changed.entails("!a")

    def test_unconstrained_round_trip_has_no_constraints(self):
        kb = KnowledgeBase("a")
        restored = knowledge_base_from_json(knowledge_base_to_json(kb))
        assert restored.constraints is None


class TestMalformedInputs:
    """Loader hardening: wrong/missing versions and broken payload fields.

    Regression suite for the version-validation fix — loaders previously
    ignored ``"version"`` entirely and would silently misparse payloads
    written by a future format.
    """

    def test_writers_stamp_a_version(self):
        assert model_set_to_dict(ModelSet(VOCAB, [0]))["version"] == 1
        kb = WeightedKnowledgeBase(VOCAB, {0: 1})
        assert weighted_kb_to_dict(kb)["version"] == 1
        payload = json.loads(knowledge_base_to_json(KnowledgeBase("a")))
        assert payload["version"] == 1

    def test_model_set_future_version_rejected(self):
        data = model_set_to_dict(ModelSet(VOCAB, [0, 5]))
        data["version"] = 2
        with pytest.raises(ReproError, match="found 2, expected 1"):
            model_set_from_dict(data)

    def test_model_set_missing_version_rejected(self):
        data = model_set_to_dict(ModelSet(VOCAB, [0, 5]))
        del data["version"]
        with pytest.raises(ReproError, match="found None"):
            model_set_from_dict(data)

    def test_weighted_kb_version_checked(self):
        data = weighted_kb_to_dict(WeightedKnowledgeBase(VOCAB, {1: 2}))
        data["version"] = "1"  # right number, wrong type — still rejected
        with pytest.raises(ReproError, match="format version"):
            weighted_kb_from_dict(data)

    def test_knowledge_base_version_checked(self):
        data = json.loads(knowledge_base_to_json(KnowledgeBase("a & b")))
        data["version"] = 0
        with pytest.raises(ReproError, match="format version"):
            knowledge_base_from_json(json.dumps(data))

    def test_kind_check_fires_before_version_check(self):
        with pytest.raises(ReproError, match="kind"):
            model_set_from_dict({"kind": "weighted-kb", "version": 99})

    def test_model_set_mask_outside_vocabulary_rejected(self):
        data = model_set_to_dict(ModelSet(VOCAB, [0]))
        data["masks"] = [8]  # 2^3 == 8 is out of range for three atoms
        with pytest.raises(ReproError):
            model_set_from_dict(data)

    def test_weighted_kb_malformed_fraction_rejected(self):
        data = weighted_kb_to_dict(WeightedKnowledgeBase(VOCAB, {1: 2}))
        data["weights"] = {"1": "not/a/fraction"}
        with pytest.raises((ReproError, ValueError, ZeroDivisionError)):
            weighted_kb_from_dict(data)


class TestKnowledgeBaseRetraction:
    def test_contract_stops_belief(self):
        kb = KnowledgeBase("a & b")
        contracted = kb.contract("a")
        assert contracted.ask("a") == "unknown"
        assert contracted.entails("b")  # minimal-change: b survives
        assert kb.model_set.issubset(contracted.model_set)

    def test_erase_stops_belief_per_model(self):
        kb = KnowledgeBase("a & b")
        erased = kb.erase("a")
        assert erased.ask("a") == "unknown"

    def test_ask_three_values(self):
        kb = KnowledgeBase("a & !b")
        assert kb.ask("a") == "yes"
        assert kb.ask("b") == "no"
        kb2 = KnowledgeBase("a | b")
        assert kb2.ask("a") == "unknown"

    def test_history_records_retractions(self):
        kb = KnowledgeBase("a & b").contract("a").erase("b")
        assert [record.operation for record in kb.history] == ["contract", "erase"]


class TestAtomicSnapshots:
    """Crash-safe snapshot files: atomic writes, refusal of torn reads."""

    def test_atomic_write_replaces_and_leaves_no_temp_files(self, tmp_path):
        from repro.kb.serialize import atomic_write_text

        path = tmp_path / "state.json"
        atomic_write_text(str(path), "first\n")
        atomic_write_text(str(path), "second\n")
        assert path.read_text() == "second\n"
        assert sorted(entry.name for entry in tmp_path.iterdir()) == [
            "state.json"
        ]

    def test_failed_write_preserves_original_and_cleans_temp(self, tmp_path):
        from repro.kb.serialize import save_json_snapshot

        path = tmp_path / "state.json"
        save_json_snapshot(str(path), {"version": 1, "kind": "x"})
        original = path.read_bytes()
        with pytest.raises(TypeError):
            # non-serializable payload: the dump fails mid-write
            save_json_snapshot(str(path), {"version": 1, "bad": object()})
        assert path.read_bytes() == original
        assert sorted(entry.name for entry in tmp_path.iterdir()) == [
            "state.json"
        ]

    def test_save_requires_version_stamp(self, tmp_path):
        from repro.kb.serialize import save_json_snapshot

        with pytest.raises(ReproError, match="version"):
            save_json_snapshot(str(tmp_path / "x.json"), {"kind": "x"})

    def test_round_trip_and_byte_identical_resave(self, tmp_path):
        from repro.kb.serialize import (
            knowledge_base_to_dict,
            load_json_snapshot,
            save_json_snapshot,
        )

        kb = KnowledgeBase("a & (b | !c)").revise("c")
        payload = {"version": 1, "kind": "wrap", "kb": knowledge_base_to_dict(kb)}
        path = tmp_path / "kb.json"
        save_json_snapshot(str(path), payload)
        first_bytes = path.read_bytes()
        loaded = load_json_snapshot(str(path))
        assert loaded == payload
        save_json_snapshot(str(path), loaded)
        assert path.read_bytes() == first_bytes

    def test_truncated_snapshot_refused_not_misparsed(self, tmp_path):
        from repro.kb.serialize import load_json_snapshot, save_json_snapshot

        path = tmp_path / "kb.json"
        save_json_snapshot(str(path), {"version": 1, "rows": list(range(50))})
        complete = path.read_bytes()
        for cut in (1, len(complete) // 2, len(complete) - 2):
            path.write_bytes(complete[:cut])
            with pytest.raises(ReproError, match="corrupt or truncated"):
                load_json_snapshot(str(path), what="kb snapshot")

    def test_non_object_snapshot_refused(self, tmp_path):
        from repro.kb.serialize import load_json_snapshot

        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ReproError, match="expected a JSON object"):
            load_json_snapshot(str(path))

    def test_corrupt_json_string_refused(self):
        with pytest.raises(ReproError, match="corrupt or truncated"):
            knowledge_base_from_json('{"kind": "knowledge-base", "versi')


class TestJsonLines:
    """The append-only JSON-lines discipline journals and session files share."""

    def test_torn_tail_dropped_on_read_and_cut_before_append(self, tmp_path):
        from repro.kb.serialize import append_json_lines, read_json_lines

        path = str(tmp_path / "log.jsonl")
        append_json_lines(path, [{"n": 0}, {"n": 1}])
        with open(path, "ab") as handle:
            handle.write(b'{"n": 2')  # a writer died mid-append
        assert read_json_lines(path, "record") == [{"n": 0}, {"n": 1}]
        append_json_lines(path, [{"n": 3}])
        assert read_json_lines(path, "record") == [{"n": 0}, {"n": 1}, {"n": 3}]
        with open(path, "rb") as handle:
            assert handle.read() == b'{"n":0}\n{"n":1}\n{"n":3}\n'

    def test_complete_undecodable_line_refused_with_its_number(self, tmp_path):
        from repro.kb.serialize import read_json_lines

        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"n":0}\n{"n":\n{"n":2}\n')
        with pytest.raises(ReproError, match="line 2 of"):
            read_json_lines(str(path), "record")

    def test_failed_fsync_cuts_the_append_back_off(self, tmp_path, monkeypatch):
        import os

        from repro.kb.serialize import append_json_lines

        path = tmp_path / "log.jsonl"
        append_json_lines(str(path), [{"n": 0}])
        before = path.read_bytes()

        def failing_fsync(fd):
            raise OSError("I/O error")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="I/O error"):
            append_json_lines(str(path), [{"n": 1}])
        monkeypatch.undo()
        assert path.read_bytes() == before
