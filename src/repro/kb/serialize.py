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

It also holds the two file disciplines the library persists through:
whole-file replacement (:func:`atomic_write_text`) for snapshots and
manifests, and append-only JSON lines (:func:`append_json_lines`,
:func:`read_json_lines`) for journals and session change logs.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from typing import Any, Callable, Optional, Sequence

from repro.core.weighted import WeightedKnowledgeBase
from repro.errors import ReproError
from repro.kb.knowledge_base import ChangeRecord, KnowledgeBase
from repro.logic.interpretation import Vocabulary
from repro.logic.parser import parse
from repro.logic.semantics import ModelSet
from repro.logic.syntax import BOTTOM

__all__ = [
    "model_set_to_dict",
    "model_set_from_dict",
    "weighted_kb_to_dict",
    "weighted_kb_from_dict",
    "change_record_to_dict",
    "check_change_record",
    "check_fields",
    "check_knowledge_base_dict",
    "knowledge_base_to_dict",
    "knowledge_base_from_dict",
    "knowledge_base_to_json",
    "knowledge_base_from_json",
    "canonical_json",
    "canonical_digest",
    "atomic_write_text",
    "save_json_snapshot",
    "load_json_snapshot",
    "append_json_lines",
    "decode_json_lines",
    "read_json_lines",
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


def _require(data: dict[str, Any], field: str, kind: Any, what: str) -> Any:
    """``data[field]`` when it is a ``kind`` (a type or a tuple of types);
    a :class:`ReproError` naming the field otherwise (a stored payload is
    outside input)."""
    if field not in data:
        raise ReproError(f"malformed {what}: {field!r} is missing")
    value = data[field]
    if not isinstance(value, kind):
        names = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise ReproError(
            f"malformed {what}: {field!r} must be a {names}, "
            f"got {type(value).__name__}"
        )
    return value


def check_fields(data: Any, fields: dict[str, Any], what: str) -> None:
    """Refuse ``data`` unless it is an object whose every field in
    ``fields`` holds a value of its type (a type or a tuple of types)."""
    if not isinstance(data, dict):
        raise ReproError(
            f"malformed {what}: expected an object, got {type(data).__name__}"
        )
    for field, kind in fields.items():
        _require(data, field, kind, what)


def _require_masks(data: dict[str, Any], field: str, what: str) -> list:
    masks = _require(data, field, list, what)
    if not all(isinstance(mask, int) for mask in masks):
        raise ReproError(f"malformed {what}: {field!r} must hold integer masks")
    return masks


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
    what = "weighted knowledge base"
    vocabulary = Vocabulary(_require(data, "atoms", list, what))
    try:
        weights = {
            int(mask): Fraction(weight_text)
            for mask, weight_text in _require(data, "weights", dict, what).items()
        }
    except (TypeError, ValueError, ZeroDivisionError) as error:
        raise ReproError(f"malformed {what}: bad weight entry: {error}") from error
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


def canonical_json(value: Any) -> str:
    """Compact canonical JSON: sorted keys, no whitespace.

    Deterministic, so an unchanged value re-renders byte-identically,
    and fast: CPython's ``json`` runs its C encoder only when ``indent``
    is None.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def canonical_digest(value: Any) -> str:
    """SHA-256 of :func:`canonical_json`: equal exactly when the values
    render identically."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def append_json_lines(path: str, values: Sequence[Any]) -> None:
    """Durably append ``values`` to a JSON-lines file, one canonical
    document per line: one open, one write, one fsync.

    A final line without its newline was torn by a writer that died
    mid-append, so no one was told it was written: it is cut off first,
    or the new lines would glue onto it.  If the write or the fsync
    fails, the file is cut back to where it ended (as far as the file
    system allows), so the caller's error leaves it as it was.
    """
    data = "".join(canonical_json(value) + "\n" for value in values).encode("utf-8")
    fd = os.open(path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        end = os.lseek(fd, 0, os.SEEK_END)
        if end and os.pread(fd, 1, end - 1) != b"\n":
            end = os.pread(fd, end, 0).rfind(b"\n") + 1
            os.ftruncate(fd, end)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.fsync(fd)
        except BaseException:
            try:
                os.ftruncate(fd, end)
            except OSError:
                pass
            raise
    finally:
        os.close(fd)


def decode_json_lines(
    data: bytes,
    what: str,
    path: str,
    first_line: int = 1,
    check: Optional[Callable[[Any], None]] = None,
) -> list[Any]:
    """Decode the complete lines of JSON-lines bytes, oldest first.

    The final line is dropped unless it ends with its newline (see
    :func:`append_json_lines`), and blank lines are skipped.  A complete
    line that does not decode, or that ``check`` refuses, raises a
    :class:`ReproError` naming ``path`` and the line (numbered from
    ``first_line``).
    """
    values = []
    lines = data.split(b"\n")[:-1]
    for number, line in enumerate(lines, first_line):
        if not line.strip():
            continue
        try:
            value = json.loads(line)
        except ValueError as error:
            raise ReproError(
                f"corrupt {what} at line {number} of {path}: {error}"
            ) from error
        if check is not None:
            try:
                check(value)
            except ReproError as error:
                raise ReproError(
                    f"bad {what} at line {number} of {path}: {error}"
                ) from error
        values.append(value)
    return values


def read_json_lines(
    path: str, what: str, check: Optional[Callable[[Any], None]] = None
) -> list[Any]:
    """Every intact record of a JSON-lines file (:func:`decode_json_lines`)."""
    with open(path, "rb") as handle:
        return decode_json_lines(handle.read(), what, path, check=check)


def change_record_to_dict(record: ChangeRecord) -> dict[str, Any]:
    """One provenance record as plain JSON: an entry of a serialized
    knowledge base's ``history``, and one line of a session file."""
    return {
        "operation": record.operation,
        "operator": record.operator,
        "incoming": str(record.incoming),
        "before": list(record.before.masks),
        "after": list(record.after.masks),
    }


def check_change_record(entry: Any) -> None:
    """Refuse an entry that lacks a field of :func:`change_record_to_dict`
    or holds one of the wrong type."""
    what = "change record"
    check_fields(entry, {"operation": str, "operator": str, "incoming": str}, what)
    for field in ("before", "after"):
        _require_masks(entry, field, what)


def check_knowledge_base_dict(data: Any) -> None:
    """Refuse a payload that is not :func:`knowledge_base_to_dict` output
    of this format version, or whose fields are missing or mistyped."""
    if not isinstance(data, dict):
        raise ReproError(
            "not a serialized knowledge base: expected an object, "
            f"got {type(data).__name__}"
        )
    if data.get("kind") != "knowledge-base":
        raise ReproError(
            f"not a serialized knowledge base: kind={data.get('kind')!r}"
        )
    _check_version(data, "knowledge base")
    what = "knowledge base"
    _require(data, "atoms", list, what)
    _require_masks(data, "masks", what)
    if not isinstance(data.get("constraints"), (str, type(None))):
        raise ReproError(f"malformed {what}: 'constraints' must be a str or null")
    history = data.get("history", [])
    if not isinstance(history, list):
        raise ReproError(f"malformed {what}: 'history' must be a list")
    for index, entry in enumerate(history):
        try:
            check_change_record(entry)
        except ReproError as error:
            raise ReproError(f"{error} (history entry {index})") from error


def knowledge_base_to_dict(kb: KnowledgeBase) -> dict[str, Any]:
    """Plain-JSON representation of a knowledge base (state + provenance)."""
    return {
        "version": _FORMAT_VERSION,
        "kind": "knowledge-base",
        "atoms": list(kb.vocabulary.atoms),
        "masks": list(kb.model_set.masks),
        "constraints": str(kb.constraints) if kb.constraints is not None else None,
        "history": [change_record_to_dict(record) for record in kb.history],
    }


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
    reattached from the keyword arguments or library defaults.  The
    state is the stored ``masks`` inside Mod(IC): a session file's fold
    stores its last record's ``after`` there, which a constrained
    contract or erase leaves outside.  A payload with a missing or
    mistyped field is refused with a :class:`ReproError`
    (:func:`check_knowledge_base_dict`), and constraints that mention an
    atom outside ``atoms`` with a
    :class:`~repro.errors.VocabularyError`.
    """
    check_knowledge_base_dict(data)
    # The public constructor parses and checks the stored atoms and
    # constraints and computes Mod(IC); the state is the stored masks.
    empty = KnowledgeBase(
        BOTTOM,
        atoms=data["atoms"],
        revision=revision,
        update=update,
        fitting=fitting,
        constraints=data.get("constraints") or None,
    )
    vocabulary = empty.vocabulary
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
    return empty._with_models(ModelSet(vocabulary, data["masks"]), history)


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
