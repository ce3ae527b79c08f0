"""Fault-tolerant chunk execution, shared by the Boolean and weighted pools.

Before this layer, one worker crash, one hung chunk, or one transient
chunk exception aborted a whole audit with no partial results.
:func:`run_resilient` drives an audit's chunk tasks through a process
pool behind a degradation ladder instead.  A task is what the engine
submits: member chunks that one worker evaluates together — in a
Boolean audit one operator's chunk of several axioms, in a weighted one
a single chunk.  Its members retry, time out and degrade together.
Below, "chunk" means such a task, and "member chunk" one of its members:

1. **Retry with backoff.**  A chunk that raises is resubmitted with an
   exponentially growing (bounded) delay, up to ``max_retries`` extra
   attempts.  The attempt number travels inside the task, so the
   deterministic fault hook (:mod:`repro.engine.faults`) can target
   "attempt 0 of chunk 3" exactly.
2. **Timeout + pool recycle.**  With ``chunk_timeout`` set, a task whose
   *running* time (queue wait excluded) exceeds ``chunk_timeout`` per
   member chunk is declared hung.  A hung worker cannot be cancelled
   through the executor API, so the whole pool is terminated and
   respawned; completed outcomes seen in the same sweep are kept, the
   hung chunk is charged a retry, and every other incomplete chunk is
   resubmitted at its current attempt.
3. **``BrokenProcessPool`` recovery.**  When a worker dies, every pending
   future fails with ``BrokenProcessPool``.  The pool is respawned and
   the incomplete chunks resubmitted; only the chunks that were actually
   *running* at the time of death (one of which killed the worker) are
   charged a retry.
4. **Parent-side serial degradation.**  A chunk that exhausts its retries
   is re-evaluated in the parent process with the same chunk-evaluation
   code (fault injection never fires there), so the audit still returns a
   complete outcome.  The merge is by minimal global scenario index, so
   none of this affects *what* the audit reports — only whether it
   survives to report it.

Every failure is recorded in a :class:`FailureReport` (attached to the
audit outcome) and mirrored to the ``engine.retries`` /
``engine.worker_crashes`` / ``engine.chunks_degraded`` /
``engine.pool_restarts`` observability counters.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

from repro import obs
from repro.engine.faults import FaultPlan

__all__ = [
    "DEFAULT_MAX_RETRIES",
    "FailureRecord",
    "FailureReport",
    "ResilienceConfig",
    "run_resilient",
]

#: Extra attempts granted to a failing chunk before it degrades to the
#: parent-side serial path (so a chunk is evaluated at most
#: ``1 + DEFAULT_MAX_RETRIES`` times in workers).
DEFAULT_MAX_RETRIES = 2

#: First-retry delay; doubles per attempt up to the cap.  Kept small:
#: the backoff exists to let a transiently sick worker recover, not to
#: throttle throughput.
DEFAULT_BACKOFF_BASE = 0.05
DEFAULT_BACKOFF_CAP = 2.0

#: Poll cadence while a chunk timeout is armed (the loop must observe
#: futures *entering* the running state to start their clocks).
_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class FailureRecord:
    """One observed failure: one attempt of one task, named by the
    (unit, ordinal) of the member chunk whose injected fault fired — or,
    when no injected fault explains it, of the task's first member."""

    unit: int
    ordinal: int
    kind: str  # "error" | "timeout" | "crash"
    attempt: int
    error: str
    degraded: bool  # True when this failure sent the chunk to the serial path


@dataclass
class FailureReport:
    """Everything that went wrong (and was absorbed) during one audit."""

    records: list[FailureRecord] = field(default_factory=list)
    retries: int = 0
    worker_crashes: int = 0
    pool_restarts: int = 0
    chunks_degraded: int = 0

    @property
    def ok(self) -> bool:
        """True iff the audit ran without a single fault."""
        return not self.records

    def describe(self) -> str:
        """One-line human summary for logs and ``--stats`` output."""
        if self.ok:
            return "no faults"
        return (
            f"{len(self.records)} fault(s): {self.retries} retried, "
            f"{self.chunks_degraded} degraded to serial, "
            f"{self.worker_crashes} worker crash(es), "
            f"{self.pool_restarts} pool restart(s)"
        )


@dataclass(frozen=True)
class ResilienceConfig:
    """Tunables for :func:`run_resilient`.

    ``chunk_timeout=None`` disables the hung-chunk reaper (the historical
    behavior); otherwise it is the budget per member chunk, so a task of
    ``n`` chunks may run ``n * chunk_timeout`` seconds.  ``max_retries``
    bounds worker-side attempts per chunk before parent-side degradation.
    """

    chunk_timeout: Optional[float] = None
    max_retries: int = DEFAULT_MAX_RETRIES
    backoff_base: float = DEFAULT_BACKOFF_BASE
    backoff_cap: float = DEFAULT_BACKOFF_CAP

    def __post_init__(self) -> None:
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError(
                f"chunk_timeout must be positive or None, got {self.chunk_timeout}"
            )
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


@dataclass
class _Flight:
    """One in-flight (or waiting-to-refly) chunk attempt."""

    task: object  # a pool task: has .attempt, and .members or .unit + .chunk
    attempt: int
    started_at: Optional[float] = None  # set when the future is seen running

    @property
    def members(self) -> tuple:
        """The task's member chunks; a task without ``members`` is one
        chunk, its own only member."""
        return getattr(self.task, "members", (self.task,))


def _terminate_pool(executor) -> None:
    """Best-effort hard stop of a pool whose workers may be hung or dead."""
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead process races
            pass
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - broken executors may refuse
        pass


def run_resilient(
    tasks: Sequence[object],
    worker_fn: Callable,
    executor_factory: Callable,
    handle_outcome: Callable[[object, object], bool],
    may_skip: Callable[[object], bool],
    serial_eval: Callable[[object], object],
    config: ResilienceConfig,
    metric_prefix: str = "engine.",
    on_restart: Optional[Callable[[], None]] = None,
    faults: Optional[FaultPlan] = None,
) -> FailureReport:
    """Run every task to completion through a respawnable process pool.

    ``worker_fn`` is the module-level worker entry point; ``tasks`` are
    frozen dataclasses with an ``attempt`` field (stamped on submission
    via ``dataclasses.replace``) and either ``members`` — member chunks,
    each with a ``unit`` and a ``chunk`` — or a ``unit`` and a ``chunk``
    of their own.  ``faults`` is the plan the workers trip, member by
    member; a failure is recorded under the member whose fault fired.
    ``handle_outcome(task, outcome)`` merges a completed chunk and returns
    True when it improved the unit's best counterexample — the loop then
    prunes any pending/queued chunk for which ``may_skip`` has become
    true.  ``serial_eval(task)`` is the parent-side in-process evaluation
    used once a chunk exhausts its retries.

    ``handle_outcome`` is invoked exactly once per chunk that is not
    pruned, regardless of how many attempts, pool restarts, or
    degradations it took — which is what keeps the merged outcome
    identical to a fault-free run.

    Restart cost contract: ``executor_factory`` must be a *closure over
    already-serialized state* — the audit engines capture the worker
    initializer payload as one ``bytes`` object per run, so a pool
    respawn reuses those bytes verbatim instead of re-pickling the
    operator roster (and, with a shared-memory arena, the roster bytes
    live in the arena and respawned workers re-map rather than re-receive
    them).  ``on_restart``, when given, runs after each respawn — the
    engines use it to verify the arena's segments survived the crash
    before the new workers attach.
    """
    report = FailureReport()
    registry = obs.active()
    if registry is not None:
        # Pre-register the resilience counters so a fault-free audit still
        # exports them (at zero) in its metrics snapshot.
        for name in ("retries", "worker_crashes", "chunks_degraded", "pool_restarts"):
            registry.counter(metric_prefix + name)

    def count(name: str) -> None:
        if registry is not None:
            registry.counter(metric_prefix + name).inc()

    executor = executor_factory()
    pending: dict[Future, _Flight] = {}
    delayed: list[tuple[float, _Flight]] = []  # (ready_at, flight) backoff queue

    def submit(flight: _Flight) -> None:
        if may_skip(flight.task):
            return
        flight.started_at = None
        task = replace(flight.task, attempt=flight.attempt)
        try:
            future = executor.submit(worker_fn, task)
        except BrokenProcessPool as error:
            # A worker died while tasks were still being submitted: park
            # the flight on an already-failed future, so the crash path
            # below respawns the pool and resubmits it with the rest.
            future = Future()
            future.set_exception(error)
        pending[future] = flight

    def prune() -> None:
        nonlocal delayed
        for future, flight in list(pending.items()):
            if may_skip(flight.task) and future.cancel():
                pending.pop(future)
        delayed = [(ready, f) for ready, f in delayed if not may_skip(f.task)]

    def absorb(flight: _Flight, outcome: object) -> None:
        if handle_outcome(flight.task, outcome):
            prune()

    def record(flight: _Flight, kind: str, error: object, degraded: bool) -> None:
        # Workers trip the members in order, so the first member the plan
        # faults at this attempt is the one whose fault fired.
        members = flight.members
        culprit = members[0]
        if faults is not None:
            culprit = next(
                (
                    member
                    for member in members
                    if faults.fault_for(
                        member.unit, member.chunk.ordinal, flight.attempt
                    )
                ),
                culprit,
            )
        report.records.append(
            FailureRecord(
                unit=culprit.unit,
                ordinal=culprit.chunk.ordinal,
                kind=kind,
                attempt=flight.attempt,
                error=str(error),
                degraded=degraded,
            )
        )

    def degrade(flight: _Flight, kind: str, error: object) -> None:
        report.chunks_degraded += 1
        count("chunks_degraded")
        record(flight, kind, error, degraded=True)
        if not may_skip(flight.task):
            absorb(flight, serial_eval(flight.task))

    def register_failure(flight: _Flight, kind: str, error: object) -> None:
        if flight.attempt >= config.max_retries:
            degrade(flight, kind, error)
            return
        report.retries += 1
        count("retries")
        record(flight, kind, error, degraded=False)
        delay = min(config.backoff_cap, config.backoff_base * (2**flight.attempt))
        delayed.append(
            (time.monotonic() + delay, _Flight(flight.task, flight.attempt + 1))
        )

    def restart_pool() -> None:
        nonlocal executor
        report.pool_restarts += 1
        count("pool_restarts")
        _terminate_pool(executor)
        if on_restart is not None:
            on_restart()
        executor = executor_factory()

    def recover(culprits: dict[Future, str], cause: str) -> None:
        """Recycle the pool; charge ``culprits`` a retry, salvage finished
        outcomes, resubmit everything else at its current attempt."""
        items = list(pending.items())
        pending.clear()
        restart_pool()
        for future, flight in items:
            if future in culprits:
                register_failure(flight, culprits[future], cause)
            elif future.cancelled():
                continue
            elif future.done() and future.exception() is None:
                # Completed in the window between the sweep and the
                # restart: keep the result rather than re-running.
                absorb(flight, future.result())
            elif future.done() and not isinstance(
                future.exception(), BrokenProcessPool
            ):
                register_failure(flight, "error", future.exception())
            else:
                submit(flight)

    try:
        for task in tasks:
            submit(_Flight(task, 0))
        while pending or delayed:
            now = time.monotonic()
            if delayed:
                due = [flight for ready, flight in delayed if ready <= now]
                delayed = [(ready, f) for ready, f in delayed if ready > now]
                for flight in due:
                    submit(flight)
            if not pending:
                if not delayed:
                    break
                time.sleep(
                    max(0.0, min(ready for ready, _ in delayed) - time.monotonic())
                )
                continue
            wait_budgets = []
            if delayed:
                wait_budgets.append(
                    max(0.0, min(ready for ready, _ in delayed) - now)
                )
            if config.chunk_timeout is not None:
                wait_budgets.append(_POLL_SECONDS)
            done, _ = wait(
                pending,
                timeout=min(wait_budgets) if wait_budgets else None,
                return_when=FIRST_COMPLETED,
            )
            now = time.monotonic()
            # Start each flight's clock when its future is first observed
            # running: queue wait must not count against the chunk
            # timeout, and a pool crash only implicates running chunks.
            for future, flight in pending.items():
                if flight.started_at is None and future.running():
                    flight.started_at = now
            crashed = False
            for future in done:
                flight = pending[future]
                if future.cancelled():
                    pending.pop(future)
                    continue
                error = future.exception()
                if error is None:
                    pending.pop(future)
                    absorb(flight, future.result())
                elif isinstance(error, BrokenProcessPool):
                    crashed = True  # handled for all flights at once below
                else:
                    pending.pop(future)
                    register_failure(flight, "error", error)
            if crashed:
                report.worker_crashes += 1
                count("worker_crashes")
                # Chunks observed running share the blame (one of them
                # killed the worker); queued chunks are innocent.  If the
                # death was too fast to observe anything running, charge
                # every pending chunk so a crash-looping chunk still
                # converges to the degradation path.
                running = {
                    future
                    for future, flight in pending.items()
                    if flight.started_at is not None
                }
                if not running:
                    running = set(pending)
                recover(
                    {future: "crash" for future in running},
                    "worker process died (BrokenProcessPool)",
                )
                continue
            if config.chunk_timeout is not None:
                hung = {
                    future
                    for future, flight in pending.items()
                    if not future.done()
                    and flight.started_at is not None
                    and now - flight.started_at
                    > config.chunk_timeout * len(flight.members)
                }
                if hung:
                    recover(
                        {future: "timeout" for future in hung},
                        f"task exceeded its {config.chunk_timeout}s per-chunk "
                        "timeout",
                    )
    finally:
        try:
            executor.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - broken executors may refuse
            pass
    return report
