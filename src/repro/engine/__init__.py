"""Batched, parallel postulate-audit engine.

The postulate harness (:mod:`repro.postulates.harness`) defines *what* an
audit checks; this package makes the checking fast:

* :mod:`repro.engine.batched` — operators evaluated over one shared
  pairwise distance matrix per (operator, vocabulary), with bounded
  memoization of per-ψ key vectors and (ψ, μ) results;
* :mod:`repro.engine.bitops` — whole chunks of scenarios evaluated as
  numpy bitmask formulas, one per axiom;
* :mod:`repro.engine.chunks` — deterministic chunking of scenario spaces
  (index ranges for enumeration, captured RNG states for sampling);
* :mod:`repro.engine.pool` — the single entry for Boolean sweeps and
  the one chunked sweep runner: process-pool fan-out with a
  deterministic min-global-index merge, early cancellation under
  ``stop_at_first``, the shared-memory arena, the resilience ladder, the
  worker-metrics fold, and the in-process loop it is bit-identical to.
  It runs with one of two chunk evaluators — the Boolean A1–A8 evaluator
  here, the weighted F1–F8 one in :mod:`repro.engine.weighted`;
* :mod:`repro.engine.resilience` — the fault-tolerance ladder under the
  fan-out: per-chunk timeouts, bounded retry with backoff, broken-pool
  respawn, and parent-side serial degradation, reported per audit as a
  :class:`FailureReport`;
* :mod:`repro.engine.faults` — deterministic fault injection
  (:class:`FaultPlan` / ``REPRO_FAULTS``) so the resilience ladder is
  testable chunk by chunk;
* :mod:`repro.engine.weighted` — the weighted stack's (Section 4)
  evaluator for that runner: F1–F8 audits over dense mask-indexed weight
  vectors with one shared distance matrix per operator and per-ψ̃ key
  caching;
* :mod:`repro.engine.shm` — zero-copy shared-memory arenas: the parent
  publishes each distance matrix / apply table / pickled roster once and
  pool workers map read-only views instead of rebuilding, with
  bit-identical per-segment fallback;
* :mod:`repro.engine.journal` — the durable chunk journal behind
  ``repro audit --journal/--resume``: completed chunks are fsynced to
  disk and a killed sweep resumes to a cell-identical matrix.  Boolean
  sweeps only: ``repro audit --weighted --journal`` is refused.

Entry points, one per representation, at every job count:
:func:`run_audit` for operator × axiom sweeps, dense or symbolic
(``check_axiom``, ``audit_operator``, ``compute_matrix``, their symbolic
mirrors and ``repro audit`` are one call of it each), and
:func:`run_weighted_audit` for F1–F8 sweeps of one weighted operator
(``check_weighted_axiom``, ``audit_weighted_operator`` and ``repro audit
--weighted``).
"""

from repro.engine.batched import (
    BatchedOperator,
    MAX_BATCH_ATOMS,
    bits_of_model_set,
    model_set_of_bits,
)
from repro.engine.bitops import ApplyTable, BIT_EVALUATORS, TABLE_UNIVERSE_LIMIT
from repro.engine.chunks import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_EXHAUSTIVE_LIMIT,
    ChunkSpec,
    ScenarioPlan,
    WeightedScenarioPlan,
    decode_chunk,
    decode_weighted_chunk,
    plan_scenarios,
    plan_weighted_scenarios,
    sample_scenario_bits,
    sample_weight_maps,
)
from repro.engine.faults import FaultPlan, FaultSpec, InjectedFault
from repro.engine.journal import (
    AUDIT_JOURNAL_VERSION,
    ChunkJournal,
    audit_manifest_config,
)
from repro.engine.pool import (
    AuditOutcome,
    ChunkOutcome,
    ChunkTask,
    EngineStats,
    run_audit,
)
from repro.engine.resilience import (
    DEFAULT_MAX_RETRIES,
    FailureRecord,
    FailureReport,
    ResilienceConfig,
)
from repro.engine.shm import (
    MIN_SHARED_BYTES,
    SEGMENT_PREFIX,
    Arena,
    ArenaDirectory,
    ArenaView,
    SegmentSpec,
    shm_available,
)
from repro.engine.weighted import (
    MAX_DENSE_ATOMS,
    DenseWeightedOperator,
    WeightedAuditOutcome,
    WeightedChunkTask,
    run_weighted_audit,
)

__all__ = [
    "BatchedOperator",
    "MAX_BATCH_ATOMS",
    "bits_of_model_set",
    "model_set_of_bits",
    "ApplyTable",
    "BIT_EVALUATORS",
    "TABLE_UNIVERSE_LIMIT",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_EXHAUSTIVE_LIMIT",
    "ChunkSpec",
    "ScenarioPlan",
    "decode_chunk",
    "plan_scenarios",
    "sample_scenario_bits",
    "WeightedScenarioPlan",
    "decode_weighted_chunk",
    "plan_weighted_scenarios",
    "sample_weight_maps",
    "AuditOutcome",
    "ChunkOutcome",
    "ChunkTask",
    "EngineStats",
    "run_audit",
    "DEFAULT_MAX_RETRIES",
    "FailureRecord",
    "FailureReport",
    "ResilienceConfig",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "AUDIT_JOURNAL_VERSION",
    "ChunkJournal",
    "audit_manifest_config",
    "MIN_SHARED_BYTES",
    "SEGMENT_PREFIX",
    "Arena",
    "ArenaDirectory",
    "ArenaView",
    "SegmentSpec",
    "shm_available",
    "MAX_DENSE_ATOMS",
    "DenseWeightedOperator",
    "WeightedAuditOutcome",
    "WeightedChunkTask",
    "run_weighted_audit",
]
