"""JSON serialization for knowledge-base state.

A database application needs its theories to survive a restart.  This
module round-trips the library's semantic objects through plain JSON:

* :class:`~repro.logic.semantics.ModelSet` — vocabulary + mask list;
* :class:`~repro.core.weighted.WeightedKnowledgeBase` — vocabulary +
  ``mask -> "num/den"`` weight map (fractions stay exact as strings);
* :class:`~repro.kb.knowledge_base.KnowledgeBase` — current models plus the
  provenance log (operator names and the incoming formulas as text).

Operators themselves are configuration, not data: loading a knowledge base
reattaches whatever operators the caller passes (defaults otherwise).
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Any

from repro.core.weighted import WeightedKnowledgeBase
from repro.errors import ReproError
from repro.kb.knowledge_base import KnowledgeBase
from repro.logic.enumeration import form_formula
from repro.logic.interpretation import Vocabulary
from repro.logic.parser import parse
from repro.logic.semantics import ModelSet

__all__ = [
    "model_set_to_dict",
    "model_set_from_dict",
    "weighted_kb_to_dict",
    "weighted_kb_from_dict",
    "knowledge_base_to_dict",
    "knowledge_base_from_dict",
    "knowledge_base_to_json",
    "knowledge_base_from_json",
    "atomic_write_text",
    "save_json_snapshot",
    "load_json_snapshot",
]

_FORMAT_VERSION = 1


def _check_version(data: dict[str, Any], what: str) -> None:
    """Reject payloads written by a different (or absent) format version.

    Every ``*_to_dict``/``*_to_json`` writer stamps ``_FORMAT_VERSION``;
    loaders must refuse anything else instead of silently misparsing a
    future format.
    """
    found = data.get("version")
    if found != _FORMAT_VERSION:
        raise ReproError(
            f"unsupported {what} format version: found {found!r}, "
            f"expected {_FORMAT_VERSION}"
        )


def model_set_to_dict(model_set: ModelSet) -> dict[str, Any]:
    """Plain-JSON representation of a model set."""
    return {
        "version": _FORMAT_VERSION,
        "kind": "model-set",
        "atoms": list(model_set.vocabulary.atoms),
        "masks": list(model_set.masks),
    }


def model_set_from_dict(data: dict[str, Any]) -> ModelSet:
    """Inverse of :func:`model_set_to_dict`."""
    if data.get("kind") != "model-set":
        raise ReproError(f"not a serialized model set: kind={data.get('kind')!r}")
    _check_version(data, "model set")
    vocabulary = Vocabulary(data["atoms"])
    return ModelSet(vocabulary, data["masks"])


def weighted_kb_to_dict(kb: WeightedKnowledgeBase) -> dict[str, Any]:
    """Plain-JSON representation of a weighted knowledge base; weights are
    serialized as exact ``"numerator/denominator"`` strings."""
    weights = {
        str(interpretation.mask): f"{weight.numerator}/{weight.denominator}"
        for interpretation, weight in kb.items()
    }
    return {
        "version": _FORMAT_VERSION,
        "kind": "weighted-kb",
        "atoms": list(kb.vocabulary.atoms),
        "weights": weights,
    }


def weighted_kb_from_dict(data: dict[str, Any]) -> WeightedKnowledgeBase:
    """Inverse of :func:`weighted_kb_to_dict`."""
    if data.get("kind") != "weighted-kb":
        raise ReproError(
            f"not a serialized weighted knowledge base: kind={data.get('kind')!r}"
        )
    _check_version(data, "weighted knowledge base")
    vocabulary = Vocabulary(data["atoms"])
    weights = {
        int(mask): Fraction(weight_text)
        for mask, weight_text in data["weights"].items()
    }
    return WeightedKnowledgeBase(vocabulary, weights)


def atomic_write_text(path: str, text: str) -> None:
    """Crash-safe file replacement: write-temp, fsync, rename, fsync dir.

    A reader never observes a torn file — it sees either the old
    complete snapshot or the new complete snapshot.  The temp file lives
    next to the target (same filesystem, so ``os.replace`` is atomic)
    and is removed on any failure.
    """
    directory = os.path.dirname(os.path.abspath(path))
    temp_path = f"{path}.tmp.{os.getpid()}"
    try:
        with open(temp_path, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    # Persist the rename itself: fsync the containing directory so the
    # new entry survives a power loss (best-effort on filesystems that
    # refuse directory fds).
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def save_json_snapshot(path: str, payload: dict[str, Any]) -> None:
    """Atomically persist a versioned snapshot payload as canonical JSON.

    The rendering is deterministic (sorted keys, fixed indent, trailing
    newline), so an unchanged payload re-saves byte-identically — the
    property the serving layer's restart tests pin.
    """
    if "version" not in payload:
        raise ReproError("snapshot payloads must carry a 'version' stamp")
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    atomic_write_text(path, text)


def load_json_snapshot(path: str, what: str = "snapshot") -> dict[str, Any]:
    """Load a JSON snapshot, indented (:func:`save_json_snapshot`) or compact.

    A torn or partial file — possible only for snapshots written without
    :func:`atomic_write_text` (e.g. hand-copied) — is *refused* with a
    :class:`ReproError` naming the file, never misparsed; version
    validation stays with the per-kind ``*_from_dict`` loaders.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except json.JSONDecodeError as error:
        raise ReproError(
            f"corrupt or truncated {what} at {path}: {error}"
        ) from error
    if not isinstance(data, dict):
        raise ReproError(
            f"corrupt {what} at {path}: expected a JSON object, "
            f"got {type(data).__name__}"
        )
    return data


def knowledge_base_to_dict(kb: KnowledgeBase) -> dict[str, Any]:
    """Plain-JSON representation of a knowledge base (state + provenance)."""
    payload = {
        "version": _FORMAT_VERSION,
        "kind": "knowledge-base",
        "atoms": list(kb.vocabulary.atoms),
        "masks": list(kb.model_set.masks),
        "constraints": str(kb.constraints) if kb.constraints is not None else None,
        "history": [
            {
                "operation": record.operation,
                "operator": record.operator,
                "incoming": str(record.incoming),
                "before": list(record.before.masks),
                "after": list(record.after.masks),
            }
            for record in kb.history
        ],
    }
    return payload


def knowledge_base_to_json(kb: KnowledgeBase) -> str:
    """Serialize a knowledge base (state + provenance) to a JSON string."""
    return json.dumps(knowledge_base_to_dict(kb), indent=2, sort_keys=True)


def knowledge_base_from_dict(
    data: dict[str, Any],
    revision=None,
    update=None,
    fitting=None,
) -> KnowledgeBase:
    """Rebuild a knowledge base from :func:`knowledge_base_to_dict` output.

    The provenance log is restored as data (it is inspectable but the
    ``before``/``after`` records are not re-derived); operators are
    reattached from the keyword arguments or library defaults.
    """
    if data.get("kind") != "knowledge-base":
        raise ReproError(
            f"not a serialized knowledge base: kind={data.get('kind')!r}"
        )
    _check_version(data, "knowledge base")
    vocabulary = Vocabulary(data["atoms"])
    model_set = ModelSet(vocabulary, data["masks"])
    from repro.kb.knowledge_base import ChangeRecord

    history = tuple(
        ChangeRecord(
            operation=entry["operation"],
            operator=entry["operator"],
            incoming=parse(entry["incoming"]),
            before=ModelSet(vocabulary, entry["before"]),
            after=ModelSet(vocabulary, entry["after"]),
        )
        for entry in data.get("history", [])
    )
    constraints_text = data.get("constraints")
    return KnowledgeBase(
        form_formula(model_set) if not model_set.is_empty else parse("false"),
        atoms=list(vocabulary.atoms),
        revision=revision,
        update=update,
        fitting=fitting,
        constraints=parse(constraints_text) if constraints_text else None,
        _models=model_set,
        _history=history,
    )


def knowledge_base_from_json(
    text: str,
    revision=None,
    update=None,
    fitting=None,
) -> KnowledgeBase:
    """String-input convenience wrapper for :func:`knowledge_base_from_dict`."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as error:
        raise ReproError(
            f"corrupt or truncated knowledge base snapshot: {error}"
        ) from error
    return knowledge_base_from_dict(data, revision, update, fitting)
