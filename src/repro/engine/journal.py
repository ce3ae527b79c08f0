"""Disk journal for resumable parallel audits.

The audit engine's chunk plan is fully deterministic — a chunk is
identified by data alone (index range or captured RNG state, see
:mod:`repro.engine.chunks`) — so a killed sweep loses nothing it has
durably recorded.  :class:`ChunkJournal` records every *absorbed* chunk
outcome; on resume the parent replays those records through the same
min-global-index merge the live run uses, skips the completed chunks
exactly, and evaluates only the rest.  The resumed matrix is
cell-identical to an uninterrupted run — including under
``stop_at_first``, where a counterexample journaled before the kill must
still win the merge against anything found after it if its global
scenario index is smaller.

The durability contract mirrors :class:`repro.soak.SoakJournal`:

``manifest.json``
    The audit's configuration (operators, axioms, vocabulary, scenario
    budget, integer seed, chunking, per-unit plan fingerprints) plus a
    SHA-256 digest of it, written atomically (temp file, fsync, rename).
    Resuming under any other configuration is refused — the chunk
    indices would mean different scenarios — and so is a torn manifest.
``journal.jsonl``
    One JSON record per completed chunk, appended, flushed, and fsynced.
    A torn final line (killed mid-write) is silently dropped; mid-file
    corruption raises.

Only integer-seeded audits are journalable: a shared ``random.Random``
has no stable identity across processes, so its plan cannot be refused
or replayed safely.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Sequence

from repro.errors import ReproError
from repro.logic.interpretation import Vocabulary
from repro.postulates.counterexample import Counterexample

__all__ = [
    "AUDIT_JOURNAL_VERSION",
    "ChunkJournal",
    "audit_manifest_config",
    "encode_counterexample",
    "decode_counterexample",
    "encode_chunk_record",
    "decode_chunk_record",
]

AUDIT_JOURNAL_VERSION = 1

_MANIFEST = "manifest.json"
_JOURNAL = "journal.jsonl"


# -- configuration digest ---------------------------------------------------------


def audit_manifest_config(
    vocabulary: Vocabulary,
    operator_names: Sequence[str],
    axiom_names: Sequence[str],
    max_scenarios: int,
    seed: int,
    stop_at_first: bool,
    chunk_size: int,
    plan_fingerprints: Sequence[dict[str, Any]],
) -> dict[str, Any]:
    """The canonical config dict an audit journal is keyed by.

    Everything that changes which scenario lives at which global index is
    in here; ``jobs`` deliberately is **not** — a sweep may be resumed
    with a different worker count and still produce the identical matrix.
    """
    return {
        "kind": "audit",
        "atoms": list(vocabulary.atoms),
        "operators": list(operator_names),
        "axioms": list(axiom_names),
        "max_scenarios": max_scenarios,
        "seed": seed,
        "stop_at_first": stop_at_first,
        "chunk_size": chunk_size,
        "plans": list(plan_fingerprints),
    }


def _digest(config: dict[str, Any]) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- counterexample / outcome (de)serialization ----------------------------------


def encode_counterexample(counterexample: Counterexample) -> dict[str, Any]:
    """A counterexample as plain JSON (model sets as hex bit-vectors)."""
    from repro.engine.batched import bits_of_model_set

    return {
        "axiom": counterexample.axiom,
        "operator": counterexample.operator,
        "roles": {
            name: hex(bits_of_model_set(model_set))
            for name, model_set in counterexample.roles.items()
        },
        "observed": {
            name: hex(bits_of_model_set(model_set))
            for name, model_set in counterexample.observed.items()
        },
        "explanation": counterexample.explanation,
    }


def decode_counterexample(
    vocabulary: Vocabulary, data: dict[str, Any]
) -> Counterexample:
    """Inverse of :func:`encode_counterexample`."""
    from repro.engine.batched import model_set_of_bits

    return Counterexample(
        axiom=data["axiom"],
        operator=data["operator"],
        roles={
            name: model_set_of_bits(vocabulary, int(bits, 16))
            for name, bits in data["roles"].items()
        },
        observed={
            name: model_set_of_bits(vocabulary, int(bits, 16))
            for name, bits in data["observed"].items()
        },
        explanation=data["explanation"],
    )


def encode_chunk_record(outcome, count: int) -> dict[str, Any]:
    """One journal line for an absorbed ``ChunkOutcome``."""
    record: dict[str, Any] = {
        "unit": outcome.unit,
        "ordinal": outcome.ordinal,
        "start": outcome.start,
        "count": count,
        "first_offset": outcome.first_offset,
        "ce": None,
    }
    if outcome.counterexample is not None:
        record["ce"] = encode_counterexample(outcome.counterexample)
    return record


def decode_chunk_record(
    vocabulary: Vocabulary, record: dict[str, Any]
) -> dict[str, Any]:
    """Journal line → ``ChunkOutcome`` keyword arguments.

    Returns kwargs rather than the dataclass to keep this module free of
    an import cycle with :mod:`repro.engine.pool`.
    """
    counterexample = None
    if record.get("ce") is not None:
        counterexample = decode_counterexample(vocabulary, record["ce"])
    return {
        "unit": int(record["unit"]),
        "ordinal": int(record["ordinal"]),
        "start": int(record["start"]),
        "first_offset": (
            None if record["first_offset"] is None else int(record["first_offset"])
        ),
        "counterexample": counterexample,
    }


# -- the journal ------------------------------------------------------------------


class ChunkJournal:
    """Append-only audit chunk journal rooted at one directory."""

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

    def initialize(self, config: dict[str, Any]) -> None:
        """Start a fresh journal; refuses to clobber an existing one."""
        # Imported here: repro.kb imports the operators, which import
        # this package.
        from repro.kb.serialize import save_json_snapshot

        if self.exists():
            raise ReproError(
                f"audit journal already exists at {self._dir}; "
                "pass resume=True (repro audit --resume) to continue it"
            )
        self._dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "version": AUDIT_JOURNAL_VERSION,
            "digest": _digest(config),
            "config": config,
        }
        save_json_snapshot(str(self.manifest_path), manifest)

    def validate(self, config: dict[str, Any]) -> None:
        """Check the on-disk manifest matches ``config``'s digest exactly.

        The digest covers everything that maps global scenario indices to
        scenarios (vocabulary, rosters, budget, seed, chunking, per-unit
        plan fingerprints), so a mismatch means the journal's completed
        chunks describe a *different* sweep — resuming would silently mix
        two scenario spaces, hence the refusal.
        """
        from repro.kb.serialize import load_json_snapshot

        if not self.exists():
            raise ReproError(f"no audit journal at {self._dir}")
        manifest = load_json_snapshot(
            str(self.manifest_path), what="audit journal manifest"
        )
        version = manifest.get("version")
        if version != AUDIT_JOURNAL_VERSION:
            raise ReproError(
                f"unsupported audit journal version: found {version!r}, "
                f"expected {AUDIT_JOURNAL_VERSION}"
            )
        expected = _digest(config)
        if manifest.get("digest") != expected:
            raise ReproError(
                "audit journal config mismatch: journal was written for a "
                "different scenario plan (digest "
                f"{manifest.get('digest')!r} != {expected!r}); refusing to "
                "resume — the journaled chunk indices would describe "
                "different scenarios under this configuration"
            )

    # -- records -----------------------------------------------------------------

    def append_chunk(self, record: dict[str, Any]) -> None:
        """Durably append one completed-chunk record (flush + fsync)."""
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with open(self.journal_path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def records(self) -> list[dict[str, Any]]:
        """All intact chunk records, oldest first.

        A torn final line (the process died mid-write) is silently
        dropped — that chunk was not durably completed; corruption
        anywhere else raises.
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
                    f"corrupt audit journal record at line {position + 1} "
                    f"of {self.journal_path}"
                )
        return out
