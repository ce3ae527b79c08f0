"""Durable session files: one log-structured JSON-lines file per session id.

The serving layer keeps its working set in memory and treats this store
as the source of truth across restarts: every mutating query is made
durable here before it is answered, and an id that is not in memory is
loaded from here on first touch.

A session file ``<id>.json`` is a base line followed by change lines:

* Line 1 is a compact canonical snapshot of the whole session (sorted
  keys, no whitespace), written by whole-file replacement through
  :func:`repro.kb.serialize.atomic_write_text` — write-temp, fsync,
  rename, fsync-dir.  A one-line file is exactly that snapshot.
* Each later line is one provenance record (a ``ChangeRecord``),
  rendered exactly as an entry of the snapshot's ``kb.history``
  (:func:`repro.kb.serialize.change_record_to_dict`) and appended with
  one write and one fsync (:func:`repro.kb.serialize.append_json_lines`).

So a write costs the new record, not the session's whole history.  The
store remembers, per session id, how many records the file holds and
the last of them (its *position*; before any, the model set the first
change starts from).  :meth:`SessionStore.save` appends only when that
object is still the session's at that index, i.e. the session in hand
descends from what the file holds; otherwise — on create, for weighted sessions (they keep no provenance
log), for sessions this store neither wrote nor loaded, and for files
in the indented layout earlier versions wrote, which cannot take
appended lines — it replaces the whole file with a fresh base line.
The position is dropped on delete and before every write, so a failed
save leaves none behind.  One writer per store directory is assumed.

Loading folds the change lines back into the base payload (its
``history`` grows and its ``masks`` become the last record's ``after``),
so :meth:`Session.from_payload` sees the same payload a whole-history
snapshot held.  The server answers only after the fsync, so a final
line without its newline was never acknowledged: it is dropped, and cut
off before the next append.  Any other line that does not decode, or a
payload with a missing or mistyped field, is refused with
:class:`ReproError` naming the file and the line.
"""

from __future__ import annotations

import json
import os
from typing import Any, Optional, Union

from repro.errors import ReproError
from repro.kb.knowledge_base import ChangeRecord, KnowledgeBase
from repro.kb.serialize import (
    append_json_lines,
    atomic_write_text,
    canonical_json,
    change_record_to_dict,
    check_change_record,
    check_knowledge_base_dict,
    decode_json_lines,
)
from repro.session import ContextRegistry, Session, WeightedSession
from repro.session.session import validate_session_id

__all__ = ["SNAPSHOT_VERSION", "SessionStore"]

#: Outer version stamp of serve-session snapshot files (the embedded
#: knowledge-base payload carries the serializer's own version).
SNAPSHOT_VERSION = 1

AnySession = Union[Session, WeightedSession]

_WHAT = "session snapshot"


def _position(kb: KnowledgeBase) -> tuple[int, object]:
    """What the file holds once ``kb`` is written: its record count and
    the object that pins them — the last record or, with none, the model
    set the first change will start from.  Records and model sets are
    made fresh for every change, so identity proves descent."""
    history = kb.history
    return len(history), (history[-1] if history else kb.model_set)


def _since(
    kb: KnowledgeBase, position: Optional[tuple[int, object]]
) -> Optional[tuple[ChangeRecord, ...]]:
    """The records ``kb`` gained after ``position``; ``None`` when ``kb``
    does not descend from what ``position`` describes."""
    if position is None:
        return None
    count, pin = position
    history = kb.history
    if len(history) < count:
        return None
    if count:
        pinned = history[count - 1]
    else:
        pinned = history[0].before if history else kb.model_set
    return history[count:] if pinned is pin else None


def _read(path: str) -> tuple[Any, list[Any], bool]:
    """``(base payload, change records, appendable)`` of a session file."""
    with open(path, "rb") as handle:
        data = handle.read()
    head, newline, tail = data.partition(b"\n")
    if newline:
        try:
            base = json.loads(head)
        except ValueError:
            pass
        else:
            records = decode_json_lines(
                tail, _WHAT, path, first_line=2, check=check_change_record
            )
            return base, records, True
    # One JSON document: the indented layout earlier versions wrote, or
    # a hand-written file without its final newline.
    try:
        return json.loads(data), [], False
    except ValueError as error:
        raise ReproError(f"corrupt or truncated {_WHAT} at {path}: {error}") from error


class SessionStore:
    """Filesystem-backed map of session id → session file."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        # session id -> _position of what its file holds
        self._positions: dict[str, tuple[int, object]] = {}

    def path_for(self, session_id: str) -> str:
        return os.path.join(self.root, f"{validate_session_id(session_id)}.json")

    def exists(self, session_id: str) -> bool:
        return os.path.exists(self.path_for(session_id))

    def list_ids(self) -> list[str]:
        """Ids of every persisted session, sorted."""
        ids = []
        for name in os.listdir(self.root):
            if name.endswith(".json"):
                ids.append(name[: -len(".json")])
        return sorted(ids)

    def save(self, session: AnySession) -> str:
        """Durably record the session; returns the file path.

        Appends the records the session gained since this store last
        wrote or loaded it, or rewrites the whole file when it cannot
        (see the module docstring).
        """
        path = self.path_for(session.session_id)
        position = self._positions.pop(session.session_id, None)
        records = _since(session.kb, position) if isinstance(session, Session) else None
        if records is None:
            payload = {
                "version": SNAPSHOT_VERSION,
                "kind": "serve-session",
                **session.to_payload(),
            }
            atomic_write_text(path, canonical_json(payload) + "\n")
        elif records:
            append_json_lines(path, [change_record_to_dict(r) for r in records])
        if isinstance(session, Session):
            self._positions[session.session_id] = _position(session.kb)
        return path

    def load(
        self,
        session_id: str,
        registry: Optional[ContextRegistry] = None,
    ) -> Optional[AnySession]:
        """Rebuild a session from its file; ``None`` when absent.

        Torn, foreign or malformed files are refused with
        :class:`ReproError`, never misparsed into a half-restored session.
        """
        path = self.path_for(session_id)
        self._positions.pop(session_id, None)
        try:
            data, records, appendable = _read(path)
        except FileNotFoundError:
            return None
        if not isinstance(data, dict):
            raise ReproError(
                f"corrupt {_WHAT} at {path}: expected a JSON object, "
                f"got {type(data).__name__}"
            )
        if data.get("kind") != "serve-session":
            raise ReproError(
                f"not a serve-session snapshot at {path}: "
                f"kind={data.get('kind')!r}"
            )
        found = data.get("version")
        if found != SNAPSHOT_VERSION:
            raise ReproError(
                f"unsupported session snapshot version at {path}: "
                f"found {found!r}, expected {SNAPSHOT_VERSION}"
            )
        if data.get("id") != session_id:
            raise ReproError(
                f"session snapshot at {path} names id {data.get('id')!r}, "
                f"expected {session_id!r}"
            )
        weighted = data.get("session_kind") == WeightedSession.kind
        if weighted and records:
            raise ReproError(
                f"bad {_WHAT} at line 2 of {path}: "
                "a weighted session keeps no change records"
            )
        kb = data.get("kb")
        try:
            if not isinstance(kb, dict):
                raise ReproError(f"'kb' must be an object, got {type(kb).__name__}")
            if not weighted:
                check_knowledge_base_dict(kb)
        except ReproError as error:
            raise ReproError(f"bad {_WHAT} at line 1 of {path}: {error}") from error
        if records:
            kb["history"] = kb.get("history", []) + records
            kb["masks"] = records[-1]["after"]
        try:
            if weighted:
                return WeightedSession.from_payload(data)
            session = Session.from_payload(data, registry=registry)
        except ReproError as error:
            raise ReproError(f"bad {_WHAT} at {path}: {error}") from error
        if appendable:
            self._positions[session_id] = _position(session.kb)
        return session

    def delete(self, session_id: str) -> bool:
        """Remove the session file; ``True`` if one existed."""
        self._positions.pop(session_id, None)
        try:
            os.unlink(self.path_for(session_id))
        except FileNotFoundError:
            return False
        return True

    def __repr__(self) -> str:
        return f"SessionStore({self.root!r}, {len(self.list_ids())} sessions)"
