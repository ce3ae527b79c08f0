"""Batched, parallel audit engine for the weighted stack (Section 4).

The Boolean engine (:mod:`repro.engine.batched` / :mod:`repro.engine.pool`)
evaluates A1–A8 audits over one shared distance matrix per operator; this
module gives F1–F8 audits of weighted operators the same architecture:

* :class:`DenseWeightedOperator` wraps a weighted operator whose
  assignment builder publishes the ``kind="wdist"`` batching contract
  (see :class:`repro.core.weighted.WdistOrderBuilder`) and evaluates
  ``ψ̃ ▷ μ̃`` directly on dense float64 weight vectors: one shared
  ``2^|𝒯| × 2^|𝒯|`` distance matrix per (operator, vocabulary), per-ψ̃ key
  vectors memoized in a bounded :class:`~repro.orders.cache.AssignmentCache`
  (one matvec per distinct ψ̃), and a bounded (ψ̃, μ̃) result cache.
* :data:`WEIGHTED_DENSE_EVALUATORS` re-express each F-axiom as pointwise
  float64 array algebra (⊔ = ``+``, ⊓ = ``minimum``, → = ``all(≤)``) —
  exact on the integer-weighted scenarios the samplers produce, because
  IEEE doubles are lossless on integers below 2^53.
* :func:`run_weighted_audit` is the single entry for weighted sweeps
  (``check_weighted_axiom``, ``audit_weighted_operator`` and ``repro
  audit --weighted`` are one call of it each) and the pool's second
  chunk evaluator: it plans deterministic captured-RNG chunks
  (:func:`repro.engine.chunks.plan_weighted_scenarios`) and hands them,
  with :func:`evaluate_weighted_chunk`, to the shared sweep runner of
  :mod:`repro.engine.pool` — the same min-global-index counterexample
  merge, early cancellation under ``stop_at_first``, arena, resilience
  ladder and worker-metrics fold as Boolean sweeps.

Every flagged scenario is re-checked with the scalar Fraction checker
before being reported — the counterexample objects are exactly the legacy
ones, and a dense/scalar disagreement raises instead of mis-reporting.
``jobs=1`` never touches the pool or the dense evaluator: it runs
the scalar checkers over the same sampled stream, axiom by axiom.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

try:  # pragma: no cover - numpy is baked into the container
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

from repro import obs
from repro.core.weighted import WeightedKnowledgeBase
from repro.distances import kernels
from repro.engine.chunks import (
    DEFAULT_CHUNK_SIZE,
    ChunkSpec,
    WeightedScenarioPlan,
    decode_weighted_chunk,
    plan_weighted_scenarios,
)
from repro.engine.faults import FaultPlan
from repro.engine.pool import (
    ChunkOutcome,
    EngineStats,
    _cache_snapshot,
    _chunk_outcome,
    _run_sweep,
    _ensure_unique,
    _record_run,
    _Unit,
)
from repro.engine.resilience import DEFAULT_MAX_RETRIES, FailureReport
from repro.engine.shm import MIN_SHARED_BYTES, Arena, ArenaView
from repro.errors import PostulateError
from repro.logic.interpretation import Vocabulary
from repro.orders.cache import AssignmentCache, CacheInfo
from repro.postulates.weighted_axioms import (
    WEIGHTED_AXIOMS,
    WeightedAxiom,
    WeightedCounterexample,
    WeightedOperator,
    random_weighted_kbs,
)

__all__ = [
    "MAX_DENSE_ATOMS",
    "WEIGHTED_KEY_CACHE_SIZE",
    "WEIGHTED_RESULT_CACHE_SIZE",
    "WEIGHTED_DENSE_EVALUATORS",
    "DenseWeightedOperator",
    "WeightedChunkTask",
    "WeightedAuditOutcome",
    "evaluate_weighted_chunk",
    "run_weighted_audit",
    "wdist_matrix",
]

#: Vocabulary-size ceiling for the shared dense distance matrix: a float64
#: ``2^n × 2^n`` matrix costs ``2^(2n+3)`` bytes (32 MiB at n=11), and each
#: pool worker holds its own copy.  Larger vocabularies fall back to the
#: delegation path (scalar operator behind the result cache).
MAX_DENSE_ATOMS = 11

#: Distinct ψ̃ key vectors kept per operator (one matvec each).
WEIGHTED_KEY_CACHE_SIZE = 1024

#: Distinct (ψ̃, μ̃) result vectors kept per operator.
WEIGHTED_RESULT_CACHE_SIZE = 2048


def wdist_matrix(operator: WeightedOperator, vocabulary: Vocabulary):
    """The float64 distance matrix the dense path evaluates ``operator``
    on, or ``None`` when :class:`DenseWeightedOperator` must delegate.

    The weighted engine's single eligibility rule — a ``kind="wdist"``
    assignment builder, an integer-valued metric, a vocabulary within
    :data:`MAX_DENSE_ATOMS` — shared by the operator and the arena
    publisher, so the parent publishes a matrix exactly when a worker
    would build one.
    """
    if np is None or vocabulary.size > MAX_DENSE_ATOMS:
        return None
    builder = getattr(getattr(operator, "assignment", None), "builder", None)
    if getattr(builder, "kind", None) != "wdist":
        return None
    masks = range(vocabulary.interpretation_count)
    matrix = np.asarray(
        kernels.distance_matrix(masks, masks, vocabulary, builder.metric)
    )
    if matrix.dtype.kind not in "iu":
        return None
    return matrix.astype(np.float64)


class DenseWeightedOperator:
    """A weighted operator evaluated on dense mask-indexed weight vectors.

    When the wrapped operator's assignment builder publishes the
    ``kind="wdist"`` contract with an integer-valued metric, ``apply``
    becomes: one shared distance matrix ``D``, keys ``D @ ψ̃`` (memoized
    per ψ̃), and ``Min(Mod(μ̃), ≤ψ̃)`` as a masked argmin over μ̃'s support —
    no Fraction arithmetic, no per-scenario matrix builds.  Other
    operators (or oversized vocabularies) delegate to the wrapped
    operator's scalar ``apply`` behind the (ψ̃, μ̃) result cache, so the
    chunked parallel sweep still applies.

    Exactness domain: float64 arithmetic on integer weights and integer
    distances is lossless below 2^53; the audit samplers only emit small
    integer weights, so dense verdicts match the Fraction reference
    bit for bit (and every reported failure is re-checked by the scalar
    checker regardless).
    """

    def __init__(
        self,
        operator: WeightedOperator,
        vocabulary: Vocabulary,
        key_cache_size: Optional[int] = WEIGHTED_KEY_CACHE_SIZE,
        result_cache_size: Optional[int] = WEIGHTED_RESULT_CACHE_SIZE,
        shared_matrix=None,
    ):
        self._operator = operator
        self._vocabulary = vocabulary
        self.name = operator.name
        self._keys = AssignmentCache(
            maxsize=key_cache_size, name="engine.weighted_keys"
        )
        self._results = AssignmentCache(
            maxsize=result_cache_size, name="engine.weighted_results"
        )
        count = vocabulary.interpretation_count
        # Zero-copy path: the arena published this exact float64 matrix;
        # mapping it is bit-identical to the rebuild.
        self._matrix_shared = (
            shared_matrix is not None
            and np is not None
            and getattr(shared_matrix, "shape", None) == (count, count)
            and getattr(shared_matrix, "dtype", None) == np.float64
        )
        self._matrix = (
            shared_matrix
            if self._matrix_shared
            else wdist_matrix(operator, vocabulary)
        )

    @property
    def dense(self) -> bool:
        """True iff ψ̃ ▷ μ̃ runs on the shared-matrix fast path."""
        return self._matrix is not None

    @property
    def matrix_shared(self) -> bool:
        """True iff the matrix is a mapped arena view, not a local build."""
        return self._matrix_shared

    @property
    def inner(self) -> WeightedOperator:
        """The wrapped scalar operator (the exactness reference)."""
        return self._operator

    @property
    def vocabulary(self) -> Vocabulary:
        """The interpretation space the engine is specialized to."""
        return self._vocabulary

    def cache_info(self) -> dict[str, CacheInfo]:
        """Hit/miss statistics of the per-ψ̃ key and (ψ̃, μ̃) result caches."""
        return {
            "keys": self._keys.cache_info(),
            "results": self._results.cache_info(),
        }

    def _keys_for(self, psi_bytes: bytes):
        psi = np.frombuffer(psi_bytes, dtype=np.float64)
        return self._matrix @ psi

    def _delegate(self, psi_vec, mu_vec):
        psi = WeightedKnowledgeBase.from_dense(self._vocabulary, psi_vec)
        mu = WeightedKnowledgeBase.from_dense(self._vocabulary, mu_vec)
        return self._operator.apply(psi, mu).dense()

    def apply_dense(self, psi_vec, mu_vec):
        """``ψ̃ ▷ μ̃`` on mask-indexed float64 vectors, as a float64 vector."""
        if self._matrix is None:
            key = (psi_vec.tobytes(), mu_vec.tobytes())
            return self._results.get_or_build(
                key, lambda _key: self._delegate(psi_vec, mu_vec)
            )
        if not psi_vec.any():
            return np.zeros_like(mu_vec)
        keys = self._keys.get_or_build(psi_vec.tobytes(), self._keys_for)
        support = mu_vec > 0.0
        if not support.any():
            return np.zeros_like(mu_vec)
        best = keys[support].min()
        return np.where(support & (keys == best), mu_vec, 0.0)

    def apply(
        self, psi: WeightedKnowledgeBase, mu: WeightedKnowledgeBase
    ) -> WeightedKnowledgeBase:
        """Object-level convenience wrapper over :meth:`apply_dense`."""
        return WeightedKnowledgeBase.from_dense(
            self._vocabulary, self.apply_dense(psi.dense(), mu.dense())
        )

    def __repr__(self) -> str:
        mode = "dense" if self.dense else "delegate"
        return f"<DenseWeightedOperator {self.name!r} ({mode})>"


# -- dense axiom evaluators ---------------------------------------------------------
#
# Each evaluator returns True iff the scenario VIOLATES the axiom, using
# the paper's weighted connectives as array algebra.  ``apply`` is
# ``DenseWeightedOperator.apply_dense``.


def _implies(left, right) -> bool:
    return bool(np.all(left <= right))


def _dense_f1(apply: Callable, scenario) -> bool:
    psi, mu = scenario
    return not _implies(apply(psi, mu), mu)


def _dense_f2(apply: Callable, scenario) -> bool:
    psi, mu = scenario
    if psi.any():
        return False
    return bool(apply(psi, mu).any())


def _dense_f3(apply: Callable, scenario) -> bool:
    psi, mu = scenario
    if not (psi.any() and mu.any()):
        return False
    return not apply(psi, mu).any()


def _dense_f4(apply: Callable, scenario) -> bool:
    psi, mu = scenario
    return not np.array_equal(apply(psi, mu), apply(psi, mu))


def _dense_f5(apply: Callable, scenario) -> bool:
    psi, mu, phi = scenario
    left = np.minimum(apply(psi, mu), phi)
    right = apply(psi, np.minimum(mu, phi))
    return not _implies(left, right)


def _dense_f6(apply: Callable, scenario) -> bool:
    psi, mu, phi = scenario
    left = np.minimum(apply(psi, mu), phi)
    if not left.any():
        return False
    right = apply(psi, np.minimum(mu, phi))
    return not _implies(right, left)


def _dense_f7(apply: Callable, scenario) -> bool:
    psi1, psi2, mu = scenario
    left = np.minimum(apply(psi1, mu), apply(psi2, mu))
    right = apply(psi1 + psi2, mu)
    return not _implies(left, right)


def _dense_f8(apply: Callable, scenario) -> bool:
    psi1, psi2, mu = scenario
    left = np.minimum(apply(psi1, mu), apply(psi2, mu))
    if not left.any():
        return False
    right = apply(psi1 + psi2, mu)
    return not _implies(right, left)


#: Axiom name → dense violation test.  Covers all of F1–F8; axioms outside
#: the table (custom extensions) fall back to the scalar checker per
#: scenario, still inside the chunked parallel sweep.
WEIGHTED_DENSE_EVALUATORS: dict[str, Callable] = {
    "F1": _dense_f1,
    "F2": _dense_f2,
    "F3": _dense_f3,
    "F4": _dense_f4,
    "F5": _dense_f5,
    "F6": _dense_f6,
    "F7": _dense_f7,
    "F8": _dense_f8,
}


# -- chunk-level work units ---------------------------------------------------------


@dataclass(frozen=True)
class WeightedChunkTask:
    """One unit of worker work: a chunk of one weighted-axiom audit.

    ``attempt`` counts retries (0 on first submission) for the
    deterministic fault hook; it plays no part in evaluation.
    """

    unit: int
    axiom: WeightedAxiom
    roles: int
    interpretation_count: int
    max_weight: int
    density: float
    include_unsatisfiable: bool
    chunk: ChunkSpec
    attempt: int = 0


@dataclass
class WeightedAuditOutcome:
    """Results keyed by axiom name (``None`` = held on every sampled
    scenario), plus the engine's aggregate counters and the failure
    report of anything the resilience layer absorbed."""

    results: dict[str, Optional[WeightedCounterexample]] = field(default_factory=dict)
    stats: EngineStats = field(default_factory=EngineStats)
    failures: FailureReport = field(default_factory=FailureReport)


# -- worker side --------------------------------------------------------------------


def _build_worker_state(
    vocabulary: Vocabulary,
    operator: WeightedOperator,
    arena: Optional[ArenaView] = None,
) -> dict:
    return {
        "vocabulary": vocabulary,
        "operator": DenseWeightedOperator(
            operator,
            vocabulary,
            shared_matrix=None if arena is None else arena.array("wmatrix"),
        ),
        # The dense matrix view aliases the arena's mappings, so the view
        # must stay alive exactly as long as the state does.
        "arena": arena,
    }


def _vector_of_map(weights: dict[int, int], interpretation_count: int):
    vector = np.zeros(interpretation_count, dtype=np.float64)
    for mask, weight in weights.items():
        vector[mask] = float(weight)
    return vector


def _scenario_kbs(
    vocabulary: Vocabulary, maps: Sequence[dict[int, int]]
) -> tuple[WeightedKnowledgeBase, ...]:
    return tuple(WeightedKnowledgeBase(vocabulary, weights) for weights in maps)


def evaluate_weighted_chunk(state: dict, task: WeightedChunkTask) -> ChunkOutcome:
    """Evaluate one weighted chunk against the worker state.

    Module-level (and state-explicit) so tests can drive the exact worker
    code path in-process.
    """
    vocabulary: Vocabulary = state["vocabulary"]
    operator: DenseWeightedOperator = state["operator"]
    started = time.perf_counter()
    before = _cache_snapshot(operator)
    plan = WeightedScenarioPlan(
        roles=task.roles,
        interpretation_count=task.interpretation_count,
        total=task.chunk.start + task.chunk.count,
        max_weight=task.max_weight,
        density=task.density,
        include_unsatisfiable=task.include_unsatisfiable,
        chunks=(task.chunk,),
    )
    scenarios = decode_weighted_chunk(plan, task.chunk)
    first_offset: Optional[int] = None
    counterexample: Optional[WeightedCounterexample] = None
    evaluator = WEIGHTED_DENSE_EVALUATORS.get(task.axiom.name)
    if evaluator is not None and operator.dense:
        for offset, maps in enumerate(scenarios):
            vectors = tuple(
                _vector_of_map(weights, task.interpretation_count)
                for weights in maps
            )
            if evaluator(operator.apply_dense, vectors):
                first_offset = offset
                break
    else:
        for offset, maps in enumerate(scenarios):
            counterexample = task.axiom.check_instance(
                operator.inner, _scenario_kbs(vocabulary, maps)
            )
            if counterexample is not None:
                first_offset = offset
                break
    if first_offset is not None and counterexample is None:
        # Reconstruct the flagged scenario as exact weighted KBs and
        # re-run the scalar checker: the reported counterexample is the
        # legacy object, and the dense evaluator is held to the Fraction
        # reference.
        counterexample = task.axiom.check_instance(
            operator.inner, _scenario_kbs(vocabulary, scenarios[first_offset])
        )
        if counterexample is None:  # pragma: no cover - exactness violation
            raise PostulateError(
                f"dense evaluator for {task.axiom.name} flagged a scenario "
                f"the scalar checker accepts (operator {operator.name})"
            )
    return _chunk_outcome(
        task,
        operator,
        "engine.weighted_",
        started,
        before,
        first_offset,
        counterexample,
    )


# -- parent side --------------------------------------------------------------------


def _plan_weighted_units(
    axioms: Sequence[WeightedAxiom],
    vocabulary: Vocabulary,
    scenarios: int,
    rng: int | random.Random,
    chunk_size: int,
    max_weight: int,
    density: float,
) -> list[_Unit]:
    """Plan every axiom audit in roster order.

    An integer seed builds a fresh stream per axiom and a shared
    ``Random`` is consumed axiom after axiom — both exactly as the
    in-process loop draws them.
    """
    units: list[_Unit] = []
    for axiom in axioms:
        generator = random.Random(rng) if isinstance(rng, int) else rng
        plan = plan_weighted_scenarios(
            vocabulary,
            len(axiom.roles),
            scenarios,
            generator,
            chunk_size,
            max_weight,
            density,
        )
        units.append(_Unit(axiom, plan))
    return units


def _weighted_chunk_task(
    unit_id: int, unit: _Unit, chunk: ChunkSpec
) -> WeightedChunkTask:
    return WeightedChunkTask(
        unit=unit_id,
        axiom=unit.axiom,
        roles=unit.plan.roles,
        interpretation_count=unit.plan.interpretation_count,
        max_weight=unit.plan.max_weight,
        density=unit.plan.density,
        include_unsatisfiable=unit.plan.include_unsatisfiable,
        chunk=chunk,
    )


def _weighted_audit_in_process(
    operator: WeightedOperator,
    axioms: Sequence[WeightedAxiom],
    vocabulary: Vocabulary,
    scenarios: int,
    rng: int | random.Random,
    max_weight: int,
    density: float,
) -> WeightedAuditOutcome:
    """The in-process loop, axiom by axiom.  Each axiom's whole stream
    (``scenarios * roles`` weighted KBs, sliced into consecutive role
    tuples) is drawn up front, exactly as planning draws it, so a shared
    ``Random`` ends in the same state on both routes."""
    outcome = WeightedAuditOutcome(stats=EngineStats(serial_fallback=True))
    start = time.perf_counter()
    for axiom in axioms:
        generator = rng if isinstance(rng, random.Random) else random.Random(rng)
        roles = len(axiom.roles)
        kbs = list(
            random_weighted_kbs(
                vocabulary, scenarios * roles, generator, max_weight, density
            )
        )
        first: Optional[WeightedCounterexample] = None
        checked = 0
        started = time.perf_counter()
        for index in range(scenarios):
            checked += 1
            scenario = tuple(kbs[index * roles : (index + 1) * roles])
            first = axiom.check_instance(operator, scenario)
            if first is not None:
                break
        elapsed = time.perf_counter() - started
        registry = obs.active()
        if registry is not None:
            registry.counter("harness.weighted_checks").inc()
            registry.counter("harness.weighted_scenarios").inc(checked)
            registry.histogram("harness.weighted_check_seconds").observe(elapsed)
        outcome.results[axiom.name] = first
        outcome.stats.scenarios += checked
    outcome.stats.elapsed_seconds = time.perf_counter() - start
    _record_run("engine.weighted_", outcome.stats)
    return outcome


def _publish_weighted_matrix(
    arena: Arena, vocabulary: Vocabulary, operator: WeightedOperator
) -> None:
    """Publish the float64 distance matrix workers would otherwise build
    (:func:`wdist_matrix`).  Matrices under
    :data:`~repro.engine.shm.MIN_SHARED_BYTES` stay local — segment
    overhead would beat the rebuild they save."""
    matrix = wdist_matrix(operator, vocabulary)
    if matrix is not None and matrix.nbytes >= MIN_SHARED_BYTES:
        arena.publish_array("wmatrix", matrix)


def run_weighted_audit(
    operator: WeightedOperator,
    axioms: Sequence[WeightedAxiom] = WEIGHTED_AXIOMS,
    vocabulary: Optional[Vocabulary] = None,
    scenarios: int = 500,
    rng: int | random.Random = 0,
    stop_at_first: bool = True,
    jobs: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    max_weight: int = 5,
    density: float = 0.5,
    chunk_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    faults: Optional[FaultPlan] = None,
    shm: Optional[bool] = None,
) -> WeightedAuditOutcome:
    """Audit one weighted operator against every axiom: the single entry
    for weighted sweeps — fanned out over ``jobs`` pool workers
    (``jobs=1``: the in-process loop, cell-identical with an integer seed
    or a shared ``Random``).

    ``chunk_timeout`` / ``max_retries`` / ``faults`` configure the
    resilience layer, and ``shm`` the zero-copy arena path, exactly as in
    :func:`repro.engine.pool.run_audit`.  Weighted sweeps have no chunk
    journal.
    """
    if vocabulary is None:
        raise ValueError("run_weighted_audit requires a vocabulary")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _ensure_unique([axiom.name for axiom in axioms], "axiom")
    if jobs == 1:
        return _weighted_audit_in_process(
            operator, axioms, vocabulary, scenarios, rng, max_weight, density
        )
    outcome = WeightedAuditOutcome()
    units = _run_sweep(
        outcome,
        kind="weighted_",
        roster=(vocabulary, operator),
        plan=lambda: _plan_weighted_units(
            axioms, vocabulary, scenarios, rng, chunk_size, max_weight, density
        ),
        make_task=_weighted_chunk_task,
        build_state=_build_worker_state,
        evaluate=evaluate_weighted_chunk,
        publish=lambda arena, units: _publish_weighted_matrix(
            arena, vocabulary, operator
        ),
        jobs=jobs,
        stop_at_first=stop_at_first,
        chunk_timeout=chunk_timeout,
        max_retries=max_retries,
        faults=faults,
        shm=shm,
    )
    if units is None:  # the roster does not pickle
        return _weighted_audit_in_process(
            operator, axioms, vocabulary, scenarios, rng, max_weight, density
        )
    for unit in units:
        outcome.results[unit.axiom.name] = unit.counterexample
    return outcome
