"""``repro.soak`` — iterated-change soak harness.

The paper's jury story is inherently iterative: witnesses keep arriving
and the jury re-arbitrates.  This package replays long seeded streams of
``revise`` / ``update`` / ``arbitrate`` / ``merge`` steps through a
:class:`~repro.kb.knowledge_base.KnowledgeBase`, checking invariants
*online* at every step — per-step postulate compliance does not compose
across a change stream, so violations must be caught where they happen,
not in a post-hoc sweep.

Three pieces:

* :mod:`repro.soak.stream` — the deterministic step stream
  (:class:`SoakConfig`, :func:`draw_step`): every step is derived from one
  seeded ``random.Random``, so a stream is identified by its seed alone;
* :mod:`repro.soak.invariants` — the online checks and the
  :class:`InvariantLedger` they accumulate into (A1/A2 per arbitration
  step, commutativity spot-checks, revision/update success and vacuity,
  serialize round-trips, fixed-point/cycle bookkeeping via
  :class:`~repro.core.iterated.Trace`);
* :mod:`repro.soak.harness` — the runner, which journals every chunk
  boundary (a captured RNG state plus a serialized knowledge base) in
  the audit engine's :class:`~repro.engine.journal.ChunkJournal`, so a
  soak killed mid-stream resumes draw-identically: the resumed run's
  final state and ledger equal an uninterrupted run's.

Surfaced as ``repro soak --steps/--seed/--journal/--resume/--metrics-out``.
"""

from repro.soak.harness import SoakReport, run_soak, state_digest
from repro.soak.invariants import InvariantLedger, OnlineInvariants
from repro.soak.stream import (
    STEP_KINDS,
    SoakConfig,
    SoakStep,
    decode_rng_state,
    draw_step,
    encode_rng_state,
)

__all__ = [
    "SoakConfig",
    "SoakStep",
    "STEP_KINDS",
    "draw_step",
    "InvariantLedger",
    "OnlineInvariants",
    "encode_rng_state",
    "decode_rng_state",
    "SoakReport",
    "run_soak",
    "state_digest",
]
