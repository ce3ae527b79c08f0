"""The chunk journal: durable progress for resumable audits and soaks.

A run whose work is a deterministic sequence of chunks, each identified
by data alone, loses nothing it has durably recorded when it is killed.
An audit chunk is an index range or a captured RNG state
(:mod:`repro.engine.chunks`); a soak chunk boundary is a captured RNG
state plus the serialized knowledge base, ledger and trace window
(:mod:`repro.soak.harness`).  :class:`ChunkJournal` records every
completed chunk, and a resumed run replays the records and evaluates
only the rest.  A resumed audit matrix is cell-identical to an
uninterrupted run's, including under ``stop_at_first``: a counterexample
journaled before the kill still wins the min-global-index merge against
anything found after it.  A resumed soak ends with the same state and
ledger digests.

Layout under the journal directory:

``manifest.json``
    The run's configuration (a plain JSON dict) and its SHA-256 digest,
    written atomically (temp file, fsync, rename).  Resuming under any
    other configuration is refused, since the journaled chunks would
    describe a different run, and so is a torn manifest.
``journal.jsonl``
    One JSON record per completed chunk, appended and fsynced
    (:func:`repro.kb.serialize.append_json_lines`).  A torn final line
    (killed mid-write) is dropped on read and cut off before the next
    append; mid-file corruption, and a record its reader's ``check``
    refuses, raise a :class:`~repro.errors.ReproError` naming the line.

Only integer-seeded audits are journalable: a shared ``random.Random``
has no stable identity across processes, so its plan cannot be refused
or replayed safely.
"""

from __future__ import annotations

import os
import re
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.errors import ReproError
from repro.logic.bitsets import bits_of_model_set, model_set_of_bits
from repro.logic.interpretation import Vocabulary
from repro.postulates.counterexample import Counterexample

__all__ = [
    "JOURNAL_VERSION",
    "ChunkJournal",
    "audit_manifest_config",
    "encode_counterexample",
    "decode_counterexample",
    "encode_chunk_record",
    "check_chunk_record",
    "decode_chunk_record",
]

JOURNAL_VERSION = 1

_MANIFEST = "manifest.json"
_JOURNAL = "journal.jsonl"


# -- audit configuration ----------------------------------------------------------


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


# -- counterexample / outcome (de)serialization ----------------------------------


def encode_counterexample(counterexample: Counterexample) -> dict[str, Any]:
    """A counterexample as plain JSON (model sets as hex bit-vectors)."""
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
    counterexample = outcome.counterexample
    return {
        "unit": outcome.unit,
        "ordinal": outcome.ordinal,
        "start": outcome.start,
        "count": count,
        "first_offset": outcome.first_offset,
        "ce": None if counterexample is None else encode_counterexample(counterexample),
    }


#: The fields of :func:`encode_chunk_record` output, and of its ``ce``.
_CHUNK_FIELDS = {
    "unit": int,
    "ordinal": int,
    "start": int,
    "count": int,
    "first_offset": (int, type(None)),
    "ce": (dict, type(None)),
}
_COUNTEREXAMPLE_FIELDS = {
    "axiom": str,
    "operator": str,
    "roles": dict,
    "observed": dict,
    "explanation": str,
}
_HEX_BITS = re.compile(r"0x[0-9a-f]+")


def check_chunk_record(record: Any) -> None:
    """Refuse a journal line that is not :func:`encode_chunk_record`
    output: a missing or mistyped field, or a model set that is not a hex
    bit-vector."""
    from repro.kb.serialize import check_fields

    check_fields(record, _CHUNK_FIELDS, "audit chunk record")
    counterexample = record["ce"]
    if counterexample is not None:
        check_fields(counterexample, _COUNTEREXAMPLE_FIELDS, "journaled counterexample")
        for bits in (*counterexample["roles"].values(), *counterexample["observed"].values()):
            if not (isinstance(bits, str) and _HEX_BITS.fullmatch(bits)):
                raise ReproError(f"malformed journaled counterexample: {bits!r} is not hex")


def decode_chunk_record(
    vocabulary: Vocabulary, record: dict[str, Any]
) -> dict[str, Any]:
    """A :func:`check_chunk_record`-checked journal line → ``ChunkOutcome``
    keyword arguments.

    Returns kwargs rather than the dataclass to keep this module free of
    an import cycle with :mod:`repro.engine.pool`.
    """
    kwargs = {key: record[key] for key in ("unit", "ordinal", "start", "first_offset")}
    counterexample = record["ce"]
    kwargs["counterexample"] = (
        None if counterexample is None else decode_counterexample(vocabulary, counterexample)
    )
    return kwargs


# -- the journal ------------------------------------------------------------------


class ChunkJournal:
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

    def initialize(self, config: dict[str, Any]) -> None:
        """Start a fresh journal for ``config``; refuses to clobber one."""
        # Imported here: repro.kb imports the operators, which import
        # this package.
        from repro.kb.serialize import canonical_digest, save_json_snapshot

        if self.exists():
            raise ReproError(
                f"a journal already exists at {self._dir}; pass resume=True "
                "(--resume) to continue it"
            )
        self._dir.mkdir(parents=True, exist_ok=True)
        save_json_snapshot(
            str(self.manifest_path),
            {"version": JOURNAL_VERSION, "digest": canonical_digest(config), "config": config},
        )

    def validate(self, config: dict[str, Any]) -> None:
        """Refuse to resume unless the manifest was written for ``config``.

        The digest is recomputed from the stored config, so manifests
        with and without a stored digest both resume.  A mismatch means
        the journaled chunks describe a *different* run (another seed,
        budget, vocabulary or chunking), and resuming would silently mix
        the two.
        """
        from repro.kb.serialize import canonical_json, load_json_snapshot

        if not self.exists():
            raise ReproError(f"no journal at {self._dir}")
        manifest = load_json_snapshot(str(self.manifest_path), what="journal manifest")
        version = manifest.get("version")
        if version != JOURNAL_VERSION:
            raise ReproError(
                f"unsupported journal version at {self._dir}: found "
                f"{version!r}, expected {JOURNAL_VERSION}"
            )
        recorded = manifest.get("config")
        if not isinstance(recorded, dict):
            raise ReproError(f"malformed journal manifest at {self._dir}: no config")
        if canonical_json(recorded) != canonical_json(config):
            differing = sorted(
                key
                for key in recorded.keys() | config.keys()
                if canonical_json(recorded.get(key)) != canonical_json(config.get(key))
            )
            raise ReproError(
                f"the journal at {self._dir} was written for another "
                f"configuration (differs in {', '.join(differing)}); refusing "
                "to resume, since its chunks would describe a different run"
            )

    # -- records -----------------------------------------------------------------

    def append_chunk(self, record: dict[str, Any]) -> None:
        """Durably append one completed-chunk record (one write + fsync)."""
        from repro.kb.serialize import append_json_lines

        append_json_lines(str(self.journal_path), [record])

    def records(
        self, check: Optional[Callable[[Any], None]] = None
    ) -> list[dict[str, Any]]:
        """All intact chunk records, oldest first.

        A torn final line (the process died mid-write) is dropped: that
        chunk was not durably completed, and the next append cuts it
        off.  Corruption anywhere else, and a record ``check`` refuses,
        raise a :class:`ReproError` naming the file and the line.
        """
        from repro.kb.serialize import read_json_lines

        if not self.journal_path.is_file():
            return []
        return read_json_lines(str(self.journal_path), "journal record", check)
