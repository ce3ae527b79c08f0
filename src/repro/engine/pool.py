"""Postulate audits: the single entry point and its process-pool fan-out.

Every Boolean sweep, dense or symbolic, from ``check_axiom`` to ``repro
audit``, is one :func:`run_audit` call, which checks the request once and
then runs the pool or its in-process loop.  The engine turns a pooled
audit — every (operator, axiom) pair over one
vocabulary — into chunk-level work units (:mod:`repro.engine.chunks`),
ships the operator roster to pool workers once via the pool initializer,
and evaluates each chunk with the batched machinery
(:mod:`repro.engine.batched` / :mod:`repro.engine.bitops`).

Every cell draws a fresh stream from the seed, so all cells of one axiom
arity share one scenario plan, and the sweep plans once per arity.  A
Boolean pool task is one operator's chunk ordinal across every axiom: its
members are that operator's (unit, chunk) pairs at that ordinal.  The
worker decodes each distinct chunk of the task once and evaluates every
member against the operator's one apply table, so the (ψ, μ) pairs that
the axioms share are resolved once, by one worker, instead of once per
worker that happens to draw a chunk.  When that makes fewer tasks than
``jobs`` (a roster of one or two operators), each operator's axioms are
dealt over enough tasks that every worker gets one.  The parent still
counts, journals and merges each member on its own; a task's journal
records go to disk in one append (one fsync) before any of them is
merged.

The pool machinery itself is one sweep runner shared by both representations
of the paper's semantics: :func:`run_audit` (A1–A8 over Boolean model
sets) and :func:`repro.engine.weighted.run_weighted_audit` (F1–F8 over
Section 4's weighted knowledge bases) differ only in how they plan units,
build and group member tasks (weighted tasks have one member each),
evaluate a task's members, publish arena arrays and run their ``jobs=1``
loop; everything else — roster shipping, the arena, the resilience
ladder, the merge and the metrics fold — is :func:`_run_sweep`.

Determinism is the design constraint, parallelism the payoff:

* scenario order is global and reproducible (index ranges / captured RNG
  states), so the merged verdicts do not depend on completion order;
* the reported counterexample is the one at the *smallest* global
  scenario index — with ``stop_at_first`` the merge also reports
  ``scenarios_checked`` as that index + 1, exactly what the in-process
  loop would have counted;
* early cancellation under ``stop_at_first`` only ever cancels chunks
  whose first scenario lies *after* the best failure seen so far, so no
  potentially-earlier counterexample is abandoned.

``jobs=1`` never touches the pool or the batched evaluator: it runs
:func:`repro.postulates.harness.check_cell` per cell, and is the only
route that takes a shared ``random.Random``, which it draws lazily, cell
after cell.  Operators that fail to pickle degrade to the same loop with
a warning rather than an error.

Fault tolerance is delegated to :mod:`repro.engine.resilience`: tasks
that raise are retried with backoff, hung tasks are reaped via
``chunk_timeout``, a broken pool is respawned with only incomplete tasks
resubmitted, and retry-exhausted tasks are re-evaluated serially in the
parent — so ``run_audit`` returns a complete, deterministic
:class:`AuditOutcome` plus a :class:`~repro.engine.resilience.FailureReport`
even under injected worker failures (:mod:`repro.engine.faults`).

Two orthogonal run-scale layers ride on the same chunk determinism:

* **zero-copy worker start-up** (:mod:`repro.engine.shm`): the parent
  builds each operator's distance matrix (and, for big sweeps over tiny
  universes, the complete apply table) once, publishes them in a
  shared-memory :class:`~repro.engine.shm.Arena`, and workers map
  read-only views instead of rebuilding.  Any attach failure falls back
  to the rebuild path per segment, bit-identically.  ``shm=None`` (the
  default) auto-enables when available.
* **journaled resume** (:mod:`repro.engine.journal`, Boolean sweeps
  only): with ``journal_dir`` every completed chunk is durably recorded,
  one record per (unit, ordinal); a killed sweep resumed with
  ``resume=True`` replays the records through the same min-global-index
  merge, drops exactly the completed members from their tasks (a task
  left with none is not submitted), and produces a cell-identical matrix
  — including ``stop_at_first`` runs, where a pre-kill counterexample
  stays the reported (first) one.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import random
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Hashable, Optional, Sequence

try:  # pragma: no cover - numpy is baked into the container
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

from repro import obs
from repro.distances import kernels
from repro.engine.batched import BatchedOperator, batching_contract, model_set_of_bits
from repro.engine.bitops import (
    ApplyTable,
    BIT_EVALUATORS,
    full_apply_table,
    supports_table,
)
from repro.engine.chunks import (
    DEFAULT_CHUNK_SIZE,
    ChunkSpec,
    ScenarioPlan,
    decode_chunk,
    plan_fingerprint,
    plan_scenarios,
)
from repro.engine.faults import FaultPlan, trip
from repro.engine.journal import (
    ChunkJournal,
    audit_manifest_config,
    check_chunk_record,
    decode_chunk_record,
    encode_chunk_record,
)
from repro.engine.resilience import (
    DEFAULT_MAX_RETRIES,
    FailureReport,
    ResilienceConfig,
    run_resilient,
)
from repro.engine.shm import MIN_SHARED_BYTES, Arena, ArenaView, shm_available
from repro.errors import PostulateError, ReproError
from repro.logic.interpretation import Vocabulary
from repro.operators.base import TheoryChangeOperator
from repro.postulates.axioms import Axiom
from repro.postulates.counterexample import CheckResult, Counterexample

if TYPE_CHECKING:
    from repro.postulates.weighted_axioms import WeightedCounterexample

__all__ = [
    "ChunkTask",
    "ChunkOutcome",
    "EngineStats",
    "AuditOutcome",
    "run_audit",
]


@dataclass(frozen=True)
class ChunkTask:
    """One member of a Boolean pool task: a chunk of one (operator,
    axiom) audit.

    A pool task carries the members of one operator at one chunk
    ordinal, one per audited axiom (or a round-robin share of them, when
    there are fewer such keys than workers); members of one arity share
    their ``chunk`` (one plan per arity), which the worker decodes once.
    """

    unit: int
    op_index: int
    axiom: Axiom
    plan_mode: str
    roles: int
    kb_universe: int
    interpretation_count: int
    chunk: ChunkSpec


@dataclass(frozen=True)
class _Task:
    """One pool task: member chunks (``ChunkTask`` or
    ``WeightedChunkTask``) that one worker evaluates together.

    ``attempt`` counts retries (0 on first submission); the deterministic
    fault hook matches it against every member's (unit, ordinal), and it
    plays no part in evaluation itself.
    """

    members: tuple
    attempt: int = 0


@dataclass(frozen=True)
class ChunkOutcome:
    """A worker's verdict on one member chunk, from either engine.

    ``first_offset`` is the in-chunk offset of the earliest failing
    scenario (``chunk.start + first_offset`` is its global index), with
    its reconstructed counterexample — a :class:`Counterexample` from the
    Boolean engine, a ``WeightedCounterexample`` from the weighted one.
    Cache counters are deltas, so the parent can sum them across chunks
    and workers.

    ``seconds`` is the member's share of its task's worker-side wall
    time: from the end of the previous member, so the task's shared
    decode counts once.  When observability is active, the task's last
    outcome carries the worker registry's full snapshot in ``metrics``,
    and ``(pid, seq)`` let the parent keep only the freshest snapshot per
    worker process (worker registries are cumulative, so the last
    snapshot per worker, merged once, counts everything exactly once).
    """

    unit: int
    ordinal: int
    start: int
    first_offset: Optional[int]
    counterexample: Optional[Counterexample | WeightedCounterexample]
    key_hits: int = 0
    key_misses: int = 0
    result_hits: int = 0
    result_misses: int = 0
    seconds: float = 0.0
    pid: int = 0
    seq: int = 0
    metrics: Optional[dict] = None


@dataclass
class EngineStats:
    """Aggregated counters for one engine run.

    ``chunks`` counts the (unit, ordinal) member chunks merged, however
    many pool tasks carried them.  ``chunk_seconds`` sums worker-side
    task wall time, shared decodes included (CPU-seconds of useful work,
    comparable across job counts); ``elapsed_seconds`` is the parent's
    end-to-end wall time for the run.  The resilience counters
    (``retries`` … ``chunks_degraded``) mirror the attached
    :class:`~repro.engine.resilience.FailureReport` and count pool tasks.
    ``shm_segments`` / ``shm_bytes`` describe the run's shared-memory
    arena (0 when the zero-copy path is off), and ``chunks_skipped``
    counts member chunks replayed from a resume journal instead of
    evaluated.
    """

    chunks: int = 0
    scenarios: int = 0
    key_hits: int = 0
    key_misses: int = 0
    result_hits: int = 0
    result_misses: int = 0
    chunk_seconds: float = 0.0
    elapsed_seconds: float = 0.0
    serial_fallback: bool = False
    retries: int = 0
    worker_crashes: int = 0
    pool_restarts: int = 0
    chunks_degraded: int = 0
    shm_segments: int = 0
    shm_bytes: int = 0
    chunks_skipped: int = 0


@dataclass
class AuditOutcome:
    """Results keyed ``operator name → axiom name → CheckResult``, plus
    the engine's aggregate counters and the failure report of anything
    the resilience layer had to absorb along the way."""

    results: dict[str, dict[str, CheckResult]] = field(default_factory=dict)
    stats: EngineStats = field(default_factory=EngineStats)
    failures: FailureReport = field(default_factory=FailureReport)


# -- worker side (both engines) -------------------------------------------------


@dataclass
class _Worker:
    """Per-process state installed by the pool initializer: the engine's
    task evaluator, the state it evaluates against (rebuilt once from the
    pickled roster, so every task of the run reuses it), the
    fault-injection plan shipped by the parent (tests/chaos lanes only),
    and a monotone counter stamped onto outcomes so the parent can order
    this worker's registry snapshots without trusting delivery order."""

    evaluate: Callable[[dict, tuple], list[ChunkOutcome]]
    state: dict
    faults: Optional[FaultPlan]
    seq: int = 0


_WORKER: Optional[_Worker] = None

#: How often a pool worker checks that the process that started it lives.
_PARENT_POLL_SECONDS = 0.5


def _exit_with_parent() -> None:
    """Exit this worker once its parent dies.

    A SIGKILLed parent never shuts its pool down, and its workers would
    otherwise wait on the call queue forever, reparented to init.  A
    daemon thread polls the parent pid and exits the process when it
    changes.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(_PARENT_POLL_SECONDS)
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


def _init_worker(payload: bytes) -> None:
    global _WORKER
    _exit_with_parent()
    obs_enabled, faults, directory, roster_blob, build_state, evaluate = (
        pickle.loads(payload)
    )
    # Start every worker from a fresh registry — before attaching the
    # arena or building worker state, so mapped-vs-rebuilt work is
    # attributed to this worker.  Under the fork start method the child
    # inherits the parent's counters, and merging an inherited registry
    # back would double-count the parent's history.
    if obs_enabled:
        obs.enable(obs.MetricsRegistry())
    else:
        obs.disable()
    arena: Optional[ArenaView] = None
    if directory is not None:
        arena = ArenaView.attach(directory)
        if roster_blob is None:
            roster_blob = arena.blob("roster")
    if roster_blob is None:
        # The roster was arena-only and its segment failed verification;
        # there is nothing to evaluate against.  Raising routes the run
        # through the resilience ladder down to the parent's serial
        # path, which never needs the arena.
        raise RuntimeError(
            "audit worker: operator roster unavailable (arena attach failed)"
        )
    vocabulary, roster = pickle.loads(roster_blob)
    _WORKER = _Worker(evaluate, build_state(vocabulary, roster, arena), faults)


def _run_task(task: _Task) -> list[ChunkOutcome]:
    worker = _WORKER
    assert worker is not None, "pool worker used before initialization"
    # Injected faults fire only here — the worker entry point — never in
    # the parent's serial re-evaluation, so degradation always terminates.
    for member in task.members:
        trip(worker.faults, member.unit, member.chunk.ordinal, task.attempt)
    outcomes = worker.evaluate(worker.state, task.members)
    registry = obs.active()
    if registry is None:
        return outcomes
    # Ship the worker's cumulative registry once per task, on its last
    # outcome; the parent keeps only the freshest (pid, seq) snapshot per
    # worker and merges once at the end of the run.
    worker.seq += 1
    outcomes[-1] = replace(
        outcomes[-1], pid=os.getpid(), seq=worker.seq, metrics=registry.snapshot()
    )
    return outcomes


def _cache_snapshot(operator) -> tuple[int, int, int, int]:
    info = operator.cache_info()
    return (
        info["keys"].hits,
        info["keys"].misses,
        info["results"].hits,
        info["results"].misses,
    )


def _chunk_outcome(
    task,
    operator,
    prefix: str,
    started: float,
    before: tuple[int, int, int, int],
    first_offset: Optional[int],
    counterexample,
) -> ChunkOutcome:
    """Close one member chunk's evaluation: the operator's cache-counter
    deltas since ``before``, the wall time since ``started``, and the
    ``<prefix>chunks_completed`` / ``scenarios`` / ``chunk_seconds``
    metrics."""
    after = _cache_snapshot(operator)
    elapsed = time.perf_counter() - started
    registry = obs.active()
    if registry is not None:
        registry.counter(prefix + "chunks_completed").inc()
        registry.counter(prefix + "scenarios").inc(task.chunk.count)
        registry.histogram(prefix + "chunk_seconds").observe(elapsed)
    return ChunkOutcome(
        unit=task.unit,
        ordinal=task.chunk.ordinal,
        start=task.chunk.start,
        first_offset=first_offset,
        counterexample=counterexample,
        key_hits=after[0] - before[0],
        key_misses=after[1] - before[1],
        result_hits=after[2] - before[2],
        result_misses=after[3] - before[3],
        seconds=elapsed,
    )


# -- worker side (Boolean engine) -----------------------------------------------


def _build_worker_state(
    vocabulary: Vocabulary,
    operators: Sequence[TheoryChangeOperator],
    arena: Optional[ArenaView] = None,
) -> dict:
    batched = [
        BatchedOperator(
            op,
            vocabulary,
            shared_matrix=None if arena is None else arena.array(f"matrix:{index}"),
        )
        for index, op in enumerate(operators)
    ]
    tables: dict[int, ApplyTable] = {}
    if arena is not None:
        for index, operator in enumerate(batched):
            prefilled = arena.array(f"table:{index}")
            if prefilled is not None and operator.batched:
                tables[index] = ApplyTable(
                    operator, prefilled.shape[0], shared=prefilled
                )
    return {
        "vocabulary": vocabulary,
        "operators": batched,
        "tables": tables,
        # The numpy views above alias the arena's mappings, so the view
        # must stay alive exactly as long as the state does.
        "arena": arena,
    }


def evaluate_chunks(state: dict, members: Sequence[ChunkTask]) -> list[ChunkOutcome]:
    """Evaluate one pool task's member chunks against the worker state,
    one outcome per member, in order.

    Members that share a chunk (one plan per arity) decode it once, and
    build its numpy columns once, when an axiom runs on the apply table;
    members of one operator share its one table.  Each member's
    ``seconds`` runs from the end of the previous member, so the shared
    decode is counted once, by the member that did it.

    Module-level (and state-explicit) so tests can drive the exact worker
    code path in-process.
    """
    vocabulary: Vocabulary = state["vocabulary"]
    tables = state["tables"]
    decoded: dict[tuple, list[tuple[int, ...]]] = {}
    columns: dict[tuple, Any] = {}
    outcomes: list[ChunkOutcome] = []
    started = time.perf_counter()
    for task in members:
        operator: BatchedOperator = state["operators"][task.op_index]
        before = _cache_snapshot(operator)
        shared = (task.plan_mode, task.roles, task.chunk)
        scenarios = decoded.get(shared)
        if scenarios is None:
            plan = ScenarioPlan(
                roles=task.roles,
                interpretation_count=task.interpretation_count,
                kb_universe=task.kb_universe,
                total=task.chunk.start + task.chunk.count,
                mode=task.plan_mode,
                exhaustive=False,
                chunks=(task.chunk,),
            )
            scenarios = decoded[shared] = decode_chunk(plan, task.chunk)
        first_offset: Optional[int] = None
        counterexample: Optional[Counterexample] = None
        evaluator = BIT_EVALUATORS.get(task.axiom.name)
        if evaluator is not None and supports_table(task.kb_universe):
            table = tables.get(task.op_index)
            if table is None:
                table = tables[task.op_index] = ApplyTable(operator, task.kb_universe)
            # Built on the table path only: above 3 atoms a knowledge
            # base's bits overflow int64.
            matrix = columns.get(shared)
            if matrix is None:
                matrix = columns[shared] = np.asarray(
                    scenarios, dtype=np.int64
                ).reshape(len(scenarios), task.roles)
            failures = evaluator(
                table.lookup, *(matrix[:, role] for role in range(task.roles))
            )
            failing = np.flatnonzero(failures)
            if failing.size:
                first_offset = int(failing[0])
        else:
            for offset, scenario_bits in enumerate(scenarios):
                scenario = tuple(
                    model_set_of_bits(vocabulary, bits) for bits in scenario_bits
                )
                counterexample = task.axiom.check_instance(operator, scenario)
                if counterexample is not None:
                    first_offset = offset
                    break
        if first_offset is not None and counterexample is None:
            scenario = tuple(
                model_set_of_bits(vocabulary, bits) for bits in scenarios[first_offset]
            )
            counterexample = task.axiom.check_instance(operator, scenario)
            if counterexample is None:  # pragma: no cover - exactness violation
                raise PostulateError(
                    f"bit evaluator for {task.axiom.name} flagged a scenario the "
                    f"scalar checker accepts (operator {operator.name})"
                )
        outcome = _chunk_outcome(
            task, operator, "engine.", started, before, first_offset, counterexample
        )
        outcomes.append(outcome)
        started += outcome.seconds
    return outcomes


# -- parent side (both engines) -------------------------------------------------


@dataclass
class _Unit:
    """Parent-side bookkeeping for one audited axiom — in Boolean sweeps,
    of the operator named ``operator_name``.

    ``op_index`` is the operator's *enumeration* position in the audited
    roster — never recovered via ``operators.index(...)``, which resolves
    equal-comparing operators to the wrong element.
    """

    axiom: Any  # Axiom | WeightedAxiom
    plan: Any  # ScenarioPlan | WeightedScenarioPlan
    op_index: int = 0
    operator_name: str = ""
    best_index: Optional[int] = None
    counterexample: Optional[Counterexample | WeightedCounterexample] = None

    def absorb(self, outcome: ChunkOutcome) -> bool:
        """Merge a chunk outcome; True iff the best failure improved."""
        if outcome.first_offset is None:
            return False
        index = outcome.start + outcome.first_offset
        if self.best_index is None or index < self.best_index:
            self.best_index = index
            self.counterexample = outcome.counterexample
            return True
        return False

    def to_result(self, stop_at_first: bool) -> CheckResult:
        checked = self.plan.total
        if stop_at_first and self.best_index is not None:
            checked = self.best_index + 1
        return CheckResult(
            axiom=self.axiom.name,
            operator=self.operator_name,
            holds=self.best_index is None,
            scenarios_checked=checked,
            exhaustive=self.plan.exhaustive,
            counterexample=self.counterexample,
            metrics={
                "scenarios_checked": checked,
                "truncated": self.plan.mode == "enumerate"
                and not self.plan.exhaustive,
            },
        )


def _ensure_unique(names: Sequence[str], what: str) -> None:
    """Results are keyed by name; duplicates would silently clobber."""
    seen: set[str] = set()
    duplicates = sorted({name for name in names if name in seen or seen.add(name)})
    if duplicates:
        raise ValueError(
            f"duplicate {what} name(s) in audit roster: {duplicates}; "
            f"results are keyed by name, so every {what} needs a distinct one"
        )


def _record_run(prefix: str, stats: EngineStats) -> None:
    """The parent's per-run metrics, pool or serial: ``<prefix>audits``,
    ``<prefix>audit_seconds`` and ``<prefix>scenarios_per_second``."""
    registry = obs.active()
    if registry is None:
        return
    registry.counter(prefix + "audits").inc()
    registry.histogram(prefix + "audit_seconds").observe(stats.elapsed_seconds)
    if stats.elapsed_seconds > 0:
        registry.gauge(prefix + "scenarios_per_second").set(
            stats.scenarios / stats.elapsed_seconds
        )


def _open_arena(
    roster_blob: bytes, publish: Callable[[Arena], None]
) -> Optional[Arena]:
    """An arena holding whatever arrays ``publish`` puts in it, plus the
    pickled roster so pool respawns re-map it instead of re-receiving it.

    If ``publish`` leaves no array segment the arena is pointless and
    ``None`` is returned — the run then behaves exactly as before the
    zero-copy layer existed.
    """
    arena = Arena()
    try:
        publish(arena)
        if not any(spec.dtype is not None for spec in arena.directory().segments):
            arena.close()
            return None
        arena.publish_bytes("roster", roster_blob)
        return arena
    except Exception:
        arena.close()
        raise


def _pool_tasks(
    units: Sequence[_Unit],
    make_task: Callable[[int, _Unit, ChunkSpec], Any],
    group: Callable[[int, _Unit, ChunkSpec], Hashable],
    completed: set[tuple[int, int]],
    jobs: int,
) -> list[_Task]:
    """The sweep's pool tasks, in unit order: every member chunk not in
    ``completed``, gathered by ``group`` key.  A key whose members are
    all completed makes no task.

    Grouping spares the workers each other's work, but not at the cost
    of idle workers: when the keys make fewer tasks than ``jobs``, each
    key's members are dealt round-robin over enough tasks that every
    worker gets one."""
    groups: dict[Hashable, list] = {}
    for unit_id, unit in enumerate(units):
        for chunk in unit.plan.chunks:
            if (unit_id, chunk.ordinal) not in completed:
                groups.setdefault(group(unit_id, unit, chunk), []).append(
                    make_task(unit_id, unit, chunk)
                )
    parts = -(-jobs // len(groups)) if groups else 1
    tasks: list[_Task] = []
    for members in groups.values():
        share = min(parts, len(members))
        tasks.extend(_Task(tuple(members[part::share])) for part in range(share))
    return tasks


def _run_sweep(
    outcome,
    kind: str,
    roster: tuple,
    plan: Callable[[], list[_Unit]],
    make_task: Callable[[int, _Unit, ChunkSpec], Any],
    group: Callable[[int, _Unit, ChunkSpec], Hashable],
    build_state: Callable[..., dict],
    evaluate: Callable[[dict, tuple], list[ChunkOutcome]],
    publish: Callable[[Arena, list[_Unit]], None],
    jobs: int,
    stop_at_first: bool,
    chunk_timeout: Optional[float],
    max_retries: int,
    faults: Optional[FaultPlan],
    shm: Optional[bool],
    journal: Optional[
        Callable[[list[_Unit]], tuple[ChunkJournal, set[tuple[int, int]]]]
    ] = None,
) -> Optional[list[_Unit]]:
    """Run one chunked sweep through the process pool — the single runner
    behind :func:`run_audit` and
    :func:`repro.engine.weighted.run_weighted_audit`.

    ``kind`` names the engine (``""`` Boolean, ``"weighted_"`` weighted):
    every metric is ``engine.<kind>…`` and the span
    ``engine.run_<kind>audit``.  Workers unpickle ``roster`` — a
    ``(vocabulary, operators)`` pair — and build their state with the
    module-level ``build_state(vocabulary, operators, arena)``.
    ``plan()`` returns the units in legacy order, ``make_task(unit_id,
    unit, chunk)`` builds one member chunk, and the members whose
    ``group(unit_id, unit, chunk)`` keys are equal form one pool task.
    The module-level ``evaluate(state, members)`` returns one outcome per
    member; it runs each task in a worker, and in the parent for tasks
    that exhausted their retries.  ``publish(arena, units)`` puts the
    arrays workers would otherwise rebuild in the arena.
    ``journal(units)``, when given, opens the chunk journal, replays its
    records into ``units``, and returns it with the completed
    ``(unit, ordinal)`` pairs; those members are left out of their tasks,
    and a task's records are journaled in one append before any of them
    is merged.

    Fills ``outcome.stats`` / ``outcome.failures`` and returns the merged
    units.  Returns ``None`` — before planning, so a caller-owned
    ``random.Random`` is still untouched — when the roster does not
    pickle, and the caller must run its in-process loop instead.
    """
    prefix = f"engine.{kind}"
    label = kind.replace("_", " ") + "audit engine"
    # One serialization per run: these bytes are reused verbatim — inside
    # the initializer payload or mapped from the arena — by every pool
    # (re)spawn, never re-pickled.
    try:
        roster_blob = pickle.dumps(roster)
    except Exception as error:  # pickling contract violated by a custom operator
        if journal is not None:
            raise ReproError(
                f"journaled audit: operator roster does not pickle ({error}); "
                "the serial fallback cannot honor a chunk journal"
            ) from error
        warnings.warn(
            f"{label}: operator roster does not pickle ({error}); "
            "falling back to the serial loop",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    if faults is None:
        faults = FaultPlan.from_env()
    units = plan()
    stats: EngineStats = outcome.stats
    run_start = time.perf_counter()
    chunk_journal: Optional[ChunkJournal] = None
    completed: set[tuple[int, int]] = set()
    if journal is not None:
        chunk_journal, completed = journal(units)
    stats.chunks_skipped = len(completed)

    if shm and not shm_available():
        warnings.warn(
            f"{label}: shared-memory arenas unavailable (numpy or "
            "multiprocessing.shared_memory missing); workers will rebuild "
            "their state",
            RuntimeWarning,
            stacklevel=3,
        )
    arena: Optional[Arena] = None
    if (shm is None or shm) and shm_available():
        arena = _open_arena(roster_blob, lambda new: publish(new, units))
    if arena is not None:
        stats.shm_segments = arena.segment_count
        stats.shm_bytes = arena.bytes_published
    payload = pickle.dumps(
        (
            obs.enabled(),
            faults,
            None if arena is None else arena.directory(),
            roster_blob if arena is None else None,
            build_state,
            evaluate,
        )
    )
    # Freshest worker registry snapshot per pid: {pid: (seq, snapshot)}.
    worker_metrics: dict[int, tuple[int, dict]] = {}
    context = (
        multiprocessing.get_context("fork")
        if "fork" in multiprocessing.get_all_start_methods()
        else None
    )

    def make_executor() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=jobs,
            initializer=_init_worker,
            initargs=(payload,),
            mp_context=context,
        )

    def handle_outcome(task: _Task, outcomes: list[ChunkOutcome]) -> bool:
        if chunk_journal is not None:
            # Durably record the task's chunks before merging any, so the
            # journal only ever names chunks that were fully evaluated.
            chunk_journal.append_chunks(
                [
                    encode_chunk_record(chunk_outcome, member.chunk.count)
                    for member, chunk_outcome in zip(task.members, outcomes)
                ]
            )
        improved = False
        for member, chunk_outcome in zip(task.members, outcomes):
            stats.chunks += 1
            stats.scenarios += member.chunk.count
            stats.key_hits += chunk_outcome.key_hits
            stats.key_misses += chunk_outcome.key_misses
            stats.result_hits += chunk_outcome.result_hits
            stats.result_misses += chunk_outcome.result_misses
            stats.chunk_seconds += chunk_outcome.seconds
            if chunk_outcome.metrics is not None:
                stored = worker_metrics.get(chunk_outcome.pid)
                if stored is None or chunk_outcome.seq > stored[0]:
                    worker_metrics[chunk_outcome.pid] = (
                        chunk_outcome.seq,
                        chunk_outcome.metrics,
                    )
            if units[chunk_outcome.unit].absorb(chunk_outcome):
                improved = True
        return improved

    def may_skip(task: _Task) -> bool:
        # Only chunks that start *after* their unit's best failure can be
        # skipped: an earlier chunk may still hold the globally first
        # counterexample.  A task is skipped when all its members can be.
        return stop_at_first and all(
            units[member.unit].best_index is not None
            and member.chunk.start > units[member.unit].best_index
            for member in task.members
        )

    parent_state: dict = {}

    def serial_eval(task: _Task) -> list[ChunkOutcome]:
        # Last-resort degradation: the parent evaluates the task with
        # the exact worker code path (fault injection never fires here).
        if not parent_state:
            parent_state.update(
                build_state(*roster, None if arena is None else arena.view())
            )
        return evaluate(parent_state, task.members)

    def on_restart() -> None:
        # A respawned pool's workers re-attach the same arena names; a
        # vanished segment would mean silent rebuild storms in every new
        # worker, so surface it (attaches still degrade gracefully).
        if arena is None:
            return
        missing = arena.verify()
        if missing:
            warnings.warn(
                f"{label}: {len(missing)} arena segment(s) vanished across "
                "a pool restart; respawned workers will rebuild locally",
                RuntimeWarning,
                stacklevel=2,
            )

    tasks = _pool_tasks(units, make_task, group, completed, jobs)
    config = ResilienceConfig(chunk_timeout=chunk_timeout, max_retries=max_retries)
    try:
        with obs.span(f"engine.run_{kind}audit", jobs=jobs, units=len(units)):
            outcome.failures = run_resilient(
                tasks,
                _run_task,
                make_executor,
                handle_outcome,
                may_skip,
                serial_eval,
                config,
                metric_prefix=prefix,
                on_restart=on_restart,
                faults=faults,
            )
    finally:
        # The sole unlink point: workers (dead or alive) never own the
        # names, so closing here on every exit path keeps /dev/shm clean.
        if arena is not None:
            arena.close()
    stats.retries = outcome.failures.retries
    stats.worker_crashes = outcome.failures.worker_crashes
    stats.pool_restarts = outcome.failures.pool_restarts
    stats.chunks_degraded = outcome.failures.chunks_degraded
    stats.elapsed_seconds = time.perf_counter() - run_start
    registry = obs.active()
    if registry is not None:
        # Fold each worker's registry into the parent exactly once, then
        # record the parent-side aggregates for this run.
        for _, snapshot in worker_metrics.values():
            registry.merge_snapshot(snapshot)
        registry.gauge("engine.shm_segments").set(stats.shm_segments)
        if arena is not None:
            # Ensure the worker-side arena counters exist in the payload
            # even when every attach succeeded with nothing to count.
            registry.counter("engine.shm_bytes_mapped")
            registry.counter("engine.shm_attach_failures")
        if stats.chunks_skipped:
            registry.counter("engine.chunks_skipped_resume").inc(
                stats.chunks_skipped
            )
    _record_run(prefix, stats)
    return units


# -- parent side (Boolean engine) -----------------------------------------------


def _plan_units(
    operators: Sequence[TheoryChangeOperator],
    axioms: Sequence[Axiom],
    vocabulary: Vocabulary,
    max_scenarios: int,
    seed: int,
    chunk_size: int,
) -> list[_Unit]:
    """Plan every (operator, axiom) audit in roster order, each on a fresh
    stream from ``seed``, as the in-process loop seeds each cell — so
    every cell of one arity has the same plan, made once."""
    plans: dict[int, ScenarioPlan] = {}
    units: list[_Unit] = []
    for op_index, operator in enumerate(operators):
        for axiom in axioms:
            roles = len(axiom.roles)
            if roles not in plans:
                plans[roles] = plan_scenarios(
                    vocabulary, roles, max_scenarios, random.Random(seed), chunk_size
                )
            units.append(_Unit(axiom, plans[roles], op_index, operator.name))
    return units


def _operator_ordinal(unit_id: int, unit: _Unit, chunk: ChunkSpec) -> tuple[int, int]:
    """A Boolean pool task's key: one operator's chunk ordinal, across
    every axiom (see :func:`_pool_tasks` for the split when keys are
    fewer than workers)."""
    return unit.op_index, chunk.ordinal


def _chunk_task(unit_id: int, unit: _Unit, chunk: ChunkSpec) -> ChunkTask:
    return ChunkTask(
        unit=unit_id,
        op_index=unit.op_index,
        axiom=unit.axiom,
        plan_mode=unit.plan.mode,
        roles=unit.plan.roles,
        kb_universe=unit.plan.kb_universe,
        interpretation_count=unit.plan.interpretation_count,
        chunk=chunk,
    )


def _audit_in_process(
    operators: Sequence[TheoryChangeOperator],
    axioms: Sequence[Axiom],
    vocabulary: Vocabulary,
    max_scenarios: int,
    rng: int | random.Random,
    stop_at_first: bool,
    impl: str,
) -> AuditOutcome:
    """The in-process loop: :func:`repro.postulates.harness.check_cell`
    per (operator, axiom) cell.  Takes the roster, not planned units,
    because planning would draw a shared ``Random`` ahead of the loop."""
    from repro.postulates.harness import check_cell

    outcome = AuditOutcome(stats=EngineStats(serial_fallback=True))
    start = time.perf_counter()
    for operator in operators:
        row = outcome.results.setdefault(operator.name, {})
        for axiom in axioms:
            generator = rng if isinstance(rng, random.Random) else random.Random(rng)
            result = row[axiom.name] = check_cell(
                operator,
                axiom,
                vocabulary,
                max_scenarios,
                generator,
                stop_at_first,
                impl,
            )
            outcome.stats.scenarios += result.scenarios_checked
    outcome.stats.elapsed_seconds = time.perf_counter() - start
    _record_run("engine.", outcome.stats)
    return outcome


#: Prefilled apply tables are published only for sweeps of at least this
#: many scenarios across all units — below that, each worker's lazy fill
#: touches too few entries for the parent's full-table build to pay off.
TABLE_PREFILL_MIN_SCENARIOS = 4096


def _publish_audit_arrays(
    arena: Arena,
    vocabulary: Vocabulary,
    operators: Sequence[TheoryChangeOperator],
    units: Sequence[_Unit],
) -> None:
    """Publish everything Boolean pool workers would otherwise rebuild.

    Per matrix-batchable operator: its dense distance matrix, built once
    per *distinct metric* (most standard operators share the Hamming
    matrix; the arena additionally content-deduplicates byte-identical
    payloads onto one OS segment) and, when the sweep is big enough to
    amortize it, the complete apply table
    (:func:`~repro.engine.bitops.full_apply_table`).  Payloads under
    :data:`~repro.engine.shm.MIN_SHARED_BYTES` are not worth their
    page/attach overhead and are skipped.
    """
    kb_universe = units[0].plan.kb_universe if units else 0
    total_scenarios = sum(unit.plan.total for unit in units)
    prefill = (
        supports_table(kb_universe) and total_scenarios >= TABLE_PREFILL_MIN_SCENARIOS
    )
    by_metric: dict[bytes, object] = {}
    for op_index, operator in enumerate(operators):
        contract = batching_contract(operator, vocabulary)
        if contract is None:
            continue
        _, _, metric = contract
        fingerprint = pickle.dumps(metric)
        matrix = by_metric.get(fingerprint)
        if matrix is None:
            all_masks = tuple(range(vocabulary.interpretation_count))
            matrix = np.asarray(
                kernels.distance_matrix(all_masks, all_masks, vocabulary, metric)
            )
            by_metric[fingerprint] = matrix
        if matrix.nbytes >= MIN_SHARED_BYTES:
            arena.publish_array(f"matrix:{op_index}", matrix)
        if prefill:
            batched = BatchedOperator(operator, vocabulary, shared_matrix=matrix)
            table = full_apply_table(batched, kb_universe)
            if table.nbytes >= MIN_SHARED_BYTES:
                arena.publish_array(f"table:{op_index}", table)


def run_audit(
    operators: Sequence[TheoryChangeOperator],
    axioms: Sequence[Axiom],
    vocabulary: Vocabulary,
    max_scenarios: int = 50_000,
    rng: int | random.Random = 0,
    stop_at_first: bool = True,
    jobs: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    chunk_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    faults: Optional[FaultPlan] = None,
    shm: Optional[bool] = None,
    journal_dir: Optional[str | os.PathLike] = None,
    resume: bool = False,
    impl: str = "dense",
) -> AuditOutcome:
    """Audit every operator against every axiom — the single entry for
    Boolean sweeps — fanned out over ``jobs`` pool workers (``jobs=1``:
    the in-process loop, cell-identical for an integer seed).

    Every refusal is made here.  Symbolic sweeps (``impl="symbolic"``)
    are serial and in-process, so they exclude ``jobs > 1``, ``shm`` and
    journals.  Pool sweeps need an integer ``rng``: planning draws every
    cell's stream up front, while the in-process loop draws a shared
    ``Random`` lazily and stops at each cell's first failure.

    ``chunk_timeout`` (seconds, ``None`` = off) reaps hung chunks — a
    pool task of ``n`` member chunks gets ``n`` budgets; ``max_retries``
    bounds worker-side attempts per chunk before the parent re-evaluates
    it serially; ``faults`` injects deterministic failures for testing
    (defaults to the ``REPRO_FAULTS`` environment plan, if any).

    ``shm`` selects the zero-copy arena path (``None`` = auto when
    available).
    ``journal_dir`` makes the sweep resumable: every completed chunk is
    durably journaled there, and ``resume=True`` replays a prior
    journal's chunks — refusing on any configuration mismatch — before
    evaluating only what remains.
    """
    from repro.session.dispatch import ensure_impl

    ensure_impl(impl, ("dense", "symbolic"))
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _ensure_unique([operator.name for operator in operators], "operator")
    _ensure_unique([axiom.name for axiom in axioms], "axiom")
    if resume and journal_dir is None:
        raise ReproError("resume requires a journal directory")
    if impl == "symbolic":
        if jobs > 1 or shm or journal_dir is not None:
            raise ReproError(
                "impl='symbolic' is serial and in-process: "
                "jobs, --shm and --journal do not apply"
            )
        from repro.symbolic import ensure_symbolic_roster

        ensure_symbolic_roster(operators)
    if jobs == 1:
        if journal_dir is not None:
            raise ReproError(
                "journaled audits need the chunked engine: pass jobs >= 2 "
                "(the serial path has no chunk boundaries to journal)"
            )
        return _audit_in_process(
            operators, axioms, vocabulary, max_scenarios, rng, stop_at_first, impl
        )
    if not isinstance(rng, int):
        raise ReproError(
            "pool sweeps need an integer seed: the pool plans every cell's "
            "scenario stream up front, which a shared Random would hand out "
            "differently from the serial loop (and a journal could not "
            "record it); pass an int rng, or jobs=1"
        )

    def open_journal(units: list[_Unit]) -> tuple[ChunkJournal, set[tuple[int, int]]]:
        journal = ChunkJournal(journal_dir)
        manifest_config = audit_manifest_config(
            vocabulary,
            [operator.name for operator in operators],
            [axiom.name for axiom in axioms],
            max_scenarios,
            rng,
            stop_at_first,
            chunk_size,
            [plan_fingerprint(unit.plan) for unit in units],
        )
        completed: set[tuple[int, int]] = set()
        if not resume:
            journal.initialize(manifest_config)
            return journal, completed
        journal.validate(manifest_config)
        for record in journal.records(check_chunk_record):
            kwargs = decode_chunk_record(vocabulary, record)
            unit_id, ordinal = kwargs["unit"], kwargs["ordinal"]
            if not 0 <= unit_id < len(units):
                raise ReproError(f"audit journal names unknown unit {unit_id}")
            if not 0 <= ordinal < len(units[unit_id].plan.chunks):
                raise ReproError(
                    f"audit journal names unknown chunk {ordinal} of unit {unit_id}"
                )
            if (unit_id, ordinal) in completed:
                continue
            completed.add((unit_id, ordinal))
            # Replaying through the live run's own merge is what keeps a
            # pre-kill counterexample FIRST: its global scenario index
            # wins against anything found after the resume, and may_skip
            # prunes accordingly.
            units[unit_id].absorb(ChunkOutcome(**kwargs))
        return journal, completed

    outcome = AuditOutcome()
    units = _run_sweep(
        outcome,
        kind="",
        roster=(vocabulary, list(operators)),
        plan=lambda: _plan_units(
            operators, axioms, vocabulary, max_scenarios, rng, chunk_size
        ),
        make_task=_chunk_task,
        group=_operator_ordinal,
        build_state=_build_worker_state,
        evaluate=evaluate_chunks,
        publish=lambda arena, units: _publish_audit_arrays(
            arena, vocabulary, operators, units
        ),
        jobs=jobs,
        stop_at_first=stop_at_first,
        chunk_timeout=chunk_timeout,
        max_retries=max_retries,
        faults=faults,
        shm=shm,
        journal=None if journal_dir is None else open_journal,
    )
    if units is None:  # the roster does not pickle
        return _audit_in_process(
            operators, axioms, vocabulary, max_scenarios, rng, stop_at_first, impl
        )
    outcome.results = {operator.name: {} for operator in operators}
    for unit in units:
        outcome.results[unit.operator_name][unit.axiom.name] = unit.to_result(
            stop_at_first
        )
    return outcome
