"""The soak runner: replay a seeded change stream with online checks.

``run_soak`` drives a :class:`~repro.kb.knowledge_base.KnowledgeBase`
through the configured stream chunk by chunk.  At every chunk boundary it
journals the captured RNG state, the serialized (history-rebased)
knowledge base, the invariant ledger, and the rolling trace window — the
complete resumable state — in the audit engine's
:class:`~repro.engine.journal.ChunkJournal`, so a run killed anywhere
resumes from the last boundary and replays the lost partial chunk
draw-identically.  The
history rebase (provenance is dropped at each boundary, after the
round-trip checks inside the chunk have exercised it) keeps memory flat
over million-step streams; it happens at the same stream positions in
interrupted and uninterrupted runs, so final states stay identical.

Cache and metrics drift ride :mod:`repro.obs`: run under ``obs.use()``
(the CLI does this for ``--metrics-out``) and the harness counts steps
per verb, checks, and violations, snapshotting the counter set at every
chunk boundary into ``SoakReport.drift``.  Drift is observational —
per-process, reset by a resume — and deliberately not part of the
journaled ledger.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro import obs
from repro.core.fitting import ReveszFitting
from repro.engine.journal import ChunkJournal
from repro.errors import ReproError
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.serialize import (
    canonical_digest,
    check_fields,
    check_knowledge_base_dict,
    knowledge_base_from_dict,
    knowledge_base_to_dict,
)
from repro.logic.enumeration import models
from repro.logic.semantics import ModelSet
from repro.logic.syntax import TOP
from repro.operators.revision import DalalRevision
from repro.operators.update import WinslettUpdate
from repro.soak.invariants import InvariantLedger, OnlineInvariants
from repro.soak.stream import (
    SoakConfig,
    SoakStep,
    decode_rng_state,
    draw_step,
    encode_rng_state,
)

__all__ = ["SoakReport", "check_soak_record", "run_soak", "state_digest"]


def state_digest(kb: KnowledgeBase) -> str:
    """Canonical SHA-256 of the knowledge base's semantic state."""
    payload = {
        "atoms": list(kb.vocabulary.atoms),
        "masks": list(kb.model_set.masks),
    }
    return canonical_digest(payload)


@dataclass
class SoakReport:
    """Outcome of one ``run_soak`` invocation."""

    config: SoakConfig
    steps_done: int
    chunks_done: int
    completed: bool
    ledger: InvariantLedger
    final_masks: tuple[int, ...]
    state_digest: str
    ledger_digest: str
    drift: list[dict[str, Any]] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.ledger.violations

    def describe(self) -> str:
        lines = [
            f"soak: {self.steps_done}/{self.config.steps} steps "
            f"({self.chunks_done} chunks, seed={self.config.seed}, "
            f"|T|={self.config.atoms})"
            + ("" if self.completed else " — INCOMPLETE, resume to continue"),
            f"state digest:  {self.state_digest}",
            f"ledger digest: {self.ledger_digest}",
            f"checks: {self.ledger.total_checks} "
            f"({', '.join(f'{k}={v}' for k, v in sorted(self.ledger.checks.items()))})",
            f"trajectory: {self.ledger.fixed_point_steps} fixed-point steps, "
            f"cycles {dict(sorted(self.ledger.cycle_detections.items()))}, "
            f"{self.ledger.unsat_resets} unsat resets",
        ]
        if self.ledger.violations:
            lines.append(f"VIOLATIONS: {len(self.ledger.violations)}")
            for violation in self.ledger.violations[:10]:
                lines.append(
                    f"  step {violation['step']}: {violation['invariant']} — "
                    f"{violation['detail']}"
                )
            if len(self.ledger.violations) > 10:
                lines.append(f"  … and {len(self.ledger.violations) - 10} more")
        else:
            lines.append("no invariant violations")
        return "\n".join(lines)


#: The fields of one journaled chunk boundary.
_RECORD_FIELDS = {
    "ordinal": int,
    "step": int,
    "rng_state": list,
    "kb": dict,
    "window": list,
    "ledger": dict,
    "state_digest": str,
}


def check_soak_record(record: Any) -> None:
    """Refuse a soak journal line that :func:`run_soak` could not resume
    from: a missing or mistyped field, an RNG state ``Random.setstate``
    would not take, or a ledger without its keys."""
    check_fields(record, _RECORD_FIELDS, "soak chunk record")
    decode_rng_state(record["rng_state"])
    check_knowledge_base_dict(record["kb"])
    InvariantLedger.from_dict(record["ledger"])
    if not all(
        isinstance(state, list) and all(isinstance(mask, int) for mask in state)
        for state in record["window"]
    ):
        raise ReproError("malformed soak chunk record: 'window' must hold mask lists")


def _apply_step(kb: KnowledgeBase, step: SoakStep) -> KnowledgeBase:
    if step.kind == "revise":
        return kb.revise(step.formulas[0])
    if step.kind == "update":
        return kb.update(step.formulas[0])
    if step.kind == "arbitrate":
        return kb.arbitrate(step.formulas[0])
    if step.kind == "merge":
        return kb.merge(step.formulas)
    raise ReproError(f"unknown soak step kind {step.kind!r}")


def run_soak(
    config: SoakConfig,
    journal_dir: Optional[str] = None,
    resume: bool = False,
    max_chunks: Optional[int] = None,
) -> SoakReport:
    """Run (or continue) a soak stream; see the module docstring.

    ``journal_dir`` enables durable chunk journaling; with ``resume`` the
    run continues from the journal's last intact boundary (a fresh journal
    under ``resume`` simply starts from step 0).  ``max_chunks`` bounds
    how many chunks this invocation processes — the stream stops cleanly
    at a boundary and a later ``resume`` picks it up, which is how the CI
    smoke lane emulates a kill deterministically.
    """
    started = time.perf_counter()
    vocabulary = config.vocabulary()
    revision, update, fitting = DalalRevision(), WinslettUpdate(), ReveszFitting()

    generator = random.Random(config.seed)
    universe = ModelSet.universe(vocabulary)
    kb = KnowledgeBase(
        TOP, atoms=vocabulary.atoms, revision=revision, update=update, fitting=fitting
    )
    invariants = OnlineInvariants(config, fitting)
    invariants.seed_window(kb.model_set)
    step_index = 0
    chunk_ordinal = 0

    journal: Optional[ChunkJournal] = None
    if journal_dir is not None:
        journal = ChunkJournal(journal_dir)
        if resume and journal.exists():
            journal.validate(config.to_dict())
            records = journal.records(check_soak_record)
            if records:
                record = records[-1]
                generator.setstate(decode_rng_state(record["rng_state"]))
                kb = knowledge_base_from_dict(
                    record["kb"],
                    revision=revision,
                    update=update,
                    fitting=fitting,
                )
                if state_digest(kb) != record["state_digest"]:
                    raise ReproError(
                        f"the journal at {journal.directory} is corrupt: chunk "
                        f"record {record['ordinal']} (step {record['step']}) "
                        "holds a knowledge base that does not match its "
                        "state_digest; refusing to resume from it"
                    )
                invariants.restore(
                    InvariantLedger.from_dict(record["ledger"]),
                    record["window"],
                    vocabulary,
                )
                step_index = record["step"]
                chunk_ordinal = record["ordinal"] + 1
        else:
            journal.initialize(config.to_dict())

    drift: list[dict[str, Any]] = []
    chunks_this_run = 0
    registry = obs.active()
    while step_index < config.steps:
        if max_chunks is not None and chunks_this_run >= max_chunks:
            break
        chunk_steps = min(config.chunk_size, config.steps - step_index)
        for _ in range(chunk_steps):
            step = draw_step(step_index, generator, vocabulary, config.depth)
            incoming = [
                models(formula, vocabulary) for formula in step.formulas
            ]
            before = kb
            kb = _apply_step(kb, step)
            invariants.observe(step, before.model_set, kb.model_set, incoming)
            if (step_index + 1) % config.roundtrip_every == 0:
                invariants.roundtrip(step_index, kb)
            if not kb.satisfiable:
                # Should be unreachable (every incoming formula is
                # satisfiable); recover deterministically so one bad state
                # cannot poison the remaining stream.
                invariants.ledger.unsat_resets += 1
                kb = kb._with_models(universe, ())
            if registry is not None:
                registry.counter("soak.steps").inc()
                registry.counter(f"soak.steps.{step.kind}").inc()
            step_index += 1
        if registry is not None:
            registry.counter("soak.chunks").inc()
            drift.append(
                {
                    "ordinal": chunk_ordinal,
                    "step": step_index,
                    "counters": dict(registry.snapshot()["counters"]),
                }
            )
        # The history rebase: the same state, no provenance.
        kb = kb._with_models(kb.model_set, ())
        if journal is not None:
            journal.append_chunk(
                {
                    "ordinal": chunk_ordinal,
                    "step": step_index,
                    "rng_state": encode_rng_state(generator.getstate()),
                    "kb": knowledge_base_to_dict(kb),
                    "window": invariants.window_masks(),
                    "ledger": invariants.ledger.to_dict(),
                    "state_digest": state_digest(kb),
                }
            )
        chunk_ordinal += 1
        chunks_this_run += 1

    ledger = invariants.ledger
    if registry is not None:
        registry.counter("soak.checks").inc(ledger.total_checks)
        registry.counter("soak.violations").inc(len(ledger.violations))
    return SoakReport(
        config=config,
        steps_done=step_index,
        chunks_done=chunk_ordinal,
        completed=step_index >= config.steps,
        ledger=ledger,
        final_masks=kb.model_set.masks,
        state_digest=state_digest(kb),
        ledger_digest=ledger.digest(),
        drift=drift,
        elapsed_seconds=time.perf_counter() - started,
    )
