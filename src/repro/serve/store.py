"""Durable session snapshots: one JSON file per session id.

The serving layer keeps its working set in memory and treats this store
as the source of truth across restarts: every mutating query snapshots
the session, and an id that is not in memory is loaded from here on
first touch.  Writes go through
:func:`repro.kb.serialize.atomic_write_text` — write-temp, fsync,
rename, fsync-dir — so a reader (including a restarted server) only ever
sees a complete snapshot.

A snapshot is compact canonical JSON: sorted keys, no whitespace, one
trailing newline.  It is re-rendered on every mutation and holds the
whole provenance log, so the encoder's speed is the store's speed:
CPython's ``json`` runs its C encoder only when ``indent`` is None, and
for an 8-atom session the indented pure-Python rendering took about
five times as long to encode and wrote 3.5 times the bytes.  The
rendering is deterministic, so an unchanged session re-saves
byte-identically (the restart tests pin this), and the loader reads any
JSON layout of the same payload, including the indented one earlier
versions wrote.
"""

from __future__ import annotations

import json
import os
from typing import Optional, Union

from repro.errors import ReproError
from repro.kb.serialize import atomic_write_text, load_json_snapshot
from repro.session import ContextRegistry, Session, WeightedSession
from repro.session.session import validate_session_id

__all__ = ["SNAPSHOT_VERSION", "SessionStore"]

#: Outer version stamp of serve-session snapshot files (the embedded
#: knowledge-base payload carries the serializer's own version).
SNAPSHOT_VERSION = 1

AnySession = Union[Session, WeightedSession]


class SessionStore:
    """Filesystem-backed map of session id → snapshot file."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

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
        """Atomically snapshot the session; returns the file path."""
        payload = {
            "version": SNAPSHOT_VERSION,
            "kind": "serve-session",
            **session.to_payload(),
        }
        path = self.path_for(session.session_id)
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        atomic_write_text(path, text + "\n")
        return path

    def load(
        self,
        session_id: str,
        registry: Optional[ContextRegistry] = None,
    ) -> Optional[AnySession]:
        """Rebuild a session from its snapshot; ``None`` when absent.

        Torn or foreign files are refused with :class:`ReproError`, never
        misparsed into a half-restored session.
        """
        path = self.path_for(session_id)
        if not os.path.exists(path):
            return None
        data = load_json_snapshot(path, what="session snapshot")
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
        if data.get("session_kind") == WeightedSession.kind:
            return WeightedSession.from_payload(data)
        return Session.from_payload(data, registry=registry)

    def delete(self, session_id: str) -> bool:
        """Remove the snapshot; ``True`` if one existed."""
        try:
            os.unlink(self.path_for(session_id))
        except FileNotFoundError:
            return False
        return True

    def __repr__(self) -> str:
        return f"SessionStore({self.root!r}, {len(self.list_ids())} sessions)"
