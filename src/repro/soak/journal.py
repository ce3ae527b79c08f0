"""Disk journal for resumable soak runs.

The journal follows the audit engine's deterministic-chunk contract
(:mod:`repro.engine.chunks`): a chunk is identified purely by data — here
the captured ``Random.getstate()`` at the boundary plus the serialized
knowledge base, ledger, and trace window — so any process can pick the
stream up exactly where a killed run left it and regenerate the remaining
steps draw-identically.

Layout under the journal directory:

``manifest.json``
    The :class:`~repro.soak.stream.SoakConfig` that defines the stream,
    written atomically (temp file, fsync, rename).  Resuming under any
    other config is refused — every field changes either the draws or
    the check schedule — and so is a torn manifest.
``journal.jsonl``
    One JSON record per *completed* chunk, appended and fsynced.  A kill
    mid-chunk loses at most the partial chunk: resume restarts from the
    last boundary and re-draws it identically.  A torn final line (killed
    mid-write) is detected and ignored.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Optional

from repro.errors import ReproError
from repro.kb.serialize import load_json_snapshot, save_json_snapshot
from repro.soak.stream import SoakConfig

__all__ = [
    "JOURNAL_VERSION",
    "SoakJournal",
    "encode_rng_state",
    "decode_rng_state",
]

JOURNAL_VERSION = 1

_MANIFEST = "manifest.json"
_JOURNAL = "journal.jsonl"


def encode_rng_state(state: tuple) -> list:
    """``Random.getstate()`` as plain JSON (tuples become lists)."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def decode_rng_state(data: list) -> tuple:
    """Inverse of :func:`encode_rng_state`."""
    version, internal, gauss_next = data
    return (version, tuple(internal), gauss_next)


class SoakJournal:
    """Append-only chunk journal rooted at one directory."""

    def __init__(self, directory: str | os.PathLike):
        self._dir = Path(directory)

    @property
    def directory(self) -> Path:
        return self._dir

    @property
    def manifest_path(self) -> Path:
        return self._dir / _MANIFEST

    @property
    def journal_path(self) -> Path:
        return self._dir / _JOURNAL

    def exists(self) -> bool:
        """Whether a manifest is already on disk."""
        return self.manifest_path.is_file()

    # -- lifecycle ---------------------------------------------------------------

    def initialize(self, config: SoakConfig) -> None:
        """Start a fresh journal; refuses to clobber an existing one."""
        if self.exists():
            raise ReproError(
                f"soak journal already exists at {self._dir}; "
                "pass resume=True to continue it"
            )
        self._dir.mkdir(parents=True, exist_ok=True)
        save_json_snapshot(
            str(self.manifest_path),
            {"version": JOURNAL_VERSION, "config": config.to_dict()},
        )

    def validate(self, config: SoakConfig) -> None:
        """Check the on-disk manifest matches ``config`` exactly."""
        if not self.exists():
            raise ReproError(f"no soak journal at {self._dir}")
        manifest = load_json_snapshot(
            str(self.manifest_path), what="soak journal manifest"
        )
        version = manifest.get("version")
        if version != JOURNAL_VERSION:
            raise ReproError(
                f"unsupported soak journal version: found {version!r}, "
                f"expected {JOURNAL_VERSION}"
            )
        recorded = SoakConfig.from_dict(manifest["config"])
        if recorded != config:
            raise ReproError(
                "soak journal config mismatch: journal was written with "
                f"{recorded.to_dict()}, run requested {config.to_dict()}"
            )

    # -- records --------------------------------------------------------------------

    def append_chunk(self, record: dict[str, Any]) -> None:
        """Durably append one completed-chunk record."""
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def records(self) -> list[dict[str, Any]]:
        """All intact chunk records, oldest first.

        A torn final line (the process died mid-write) is silently
        dropped — the chunk it described was not durably completed.
        """
        if not self.journal_path.is_file():
            return []
        out: list[dict[str, Any]] = []
        with open(self.journal_path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
        for position, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError:
                if position == len(lines) - 1:
                    break
                raise ReproError(
                    f"corrupt soak journal record at line {position + 1} "
                    f"of {self.journal_path}"
                )
        return out

    def last_record(self) -> Optional[dict[str, Any]]:
        """The newest intact chunk record, or ``None`` for a fresh journal."""
        records = self.records()
        return records[-1] if records else None
