"""Fault-injection tests for the resilient audit engine.

The resilience layer's contract is that an audit *completes with the
exact same deterministic results* no matter what the pool does along the
way: chunks may raise, hang past the per-chunk timeout, or take their
worker process down entirely, and the merged ``AuditOutcome`` must still
be cell-identical to a fault-free run (serial or parallel), with the
damage visible only in the attached ``FailureReport``.  These tests
drive every rung of the ladder — retry, pool recycle, broken-pool
respawn, and parent-side serial degradation — through the deterministic
:class:`~repro.engine.faults.FaultPlan` hook.
"""

import dataclasses
import random
import signal
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.fitting import ReveszFitting
from repro.core.weighted import WeightedModelFitting
from repro.engine.chunks import ChunkSpec
from repro.engine.faults import (
    DEFAULT_HANG_SECONDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    trip,
)
from repro.engine.pool import run_audit
from repro.engine.resilience import ResilienceConfig, run_resilient
from repro.engine.weighted import run_weighted_audit
from repro.errors import ReproError
from repro.logic.interpretation import Vocabulary
from repro.operators.revision import DalalRevision
from repro.postulates.axioms import axiom_by_name
from repro.postulates.weighted_axioms import WEIGHTED_AXIOMS

VOCAB2 = Vocabulary(["a", "b"])
OPERATORS = [DalalRevision(), ReveszFitting()]
AXIOMS = [axiom_by_name("R1"), axiom_by_name("R2"), axiom_by_name("A8")]

#: Shared audit shape: small enough to be quick, chunked finely enough
#: that every unit spans several chunks for faults to target.  Unit 0 is
#: dalal/R1, which holds, so none of its chunks are ever pruned by the
#: ``stop_at_first`` early-cancellation — faults aimed there always fire.
AUDIT = dict(max_scenarios=600, rng=7, chunk_size=64)


@pytest.fixture(autouse=True)
def hang_guard():
    """Fail fast if a regression lets an injected hang wedge the suite.

    An alarm-based guard rather than a plugin dependency: any test in
    this module that runs longer than the budget aborts with a clear
    error instead of hanging CI until the job-level timeout.
    """
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return

    def on_alarm(signum, frame):
        raise RuntimeError(
            "fault-injection test exceeded the 120s hang guard — "
            "a hung chunk was not reaped"
        )

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def baseline_serial():
    return run_audit(OPERATORS, AXIOMS, VOCAB2, jobs=1, **AUDIT)


@pytest.fixture(scope="module")
def baseline_parallel():
    return run_audit(OPERATORS, AXIOMS, VOCAB2, jobs=2, **AUDIT)


def assert_results_identical(outcome, baseline):
    for op_name, per_axiom in baseline.results.items():
        for axiom_name, expected in per_axiom.items():
            got = outcome.results[op_name][axiom_name]
            assert got == expected, f"{op_name}/{axiom_name}"


class TestFaultPlanParsing:
    def test_parse_full_directive(self):
        plan = FaultPlan.parse("raise:0.1x2, hang:3, kill")
        assert plan.specs == (
            FaultSpec("raise", 0, 1, 2),
            FaultSpec("hang", 3, None, 1),
            FaultSpec("kill", None, None, 1),
        )

    def test_parse_wildcards_and_always(self):
        plan = FaultPlan.parse("raise:*.2x0")
        (spec,) = plan.specs
        assert spec.unit is None and spec.ordinal == 2
        # times <= 0 means every attempt, i.e. retry exhaustion.
        assert spec.matches(5, 2, attempt=99)
        assert not spec.matches(5, 3, attempt=0)

    def test_first_match_wins_and_times_bound(self):
        plan = FaultPlan.parse("kill:1.0x1,raise:1x0")
        assert plan.fault_for(1, 0, attempt=0) == "kill"
        assert plan.fault_for(1, 0, attempt=1) == "raise"
        assert plan.fault_for(1, 7, attempt=3) == "raise"
        assert plan.fault_for(2, 0, attempt=0) is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.parse("explode:0.0")

    def test_bad_repeat_count_rejected(self):
        with pytest.raises(ValueError, match="repeat count"):
            FaultPlan.parse("raise:0.0xbogus")

    def test_from_env(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({"REPRO_FAULTS": "  "}) is None
        plan = FaultPlan.from_env(
            {"REPRO_FAULTS": "hang:2.1", "REPRO_FAULTS_HANG_SECONDS": "1.5"}
        )
        assert plan is not None
        assert plan.hang_seconds == 1.5
        assert plan.fault_for(2, 1, 0) == "hang"
        implicit = FaultPlan.from_env({"REPRO_FAULTS": "raise"})
        assert implicit is not None
        assert implicit.hang_seconds == DEFAULT_HANG_SECONDS

    def test_trip_raises_only_on_match(self):
        plan = FaultPlan.parse("raise:0.0")
        trip(plan, 1, 1, 0)  # no match: no-op
        trip(None, 0, 0, 0)  # no plan: no-op
        with pytest.raises(InjectedFault):
            trip(plan, 0, 0, 0)


class TestFaultRecovery:
    def test_raised_chunks_retry_to_identical_results(
        self, baseline_serial, baseline_parallel
    ):
        """Every chunk raising once is absorbed by one retry each, and
        the merged outcome matches both fault-free baselines."""
        faulty = run_audit(
            OPERATORS,
            AXIOMS,
            VOCAB2,
            jobs=2,
            faults=FaultPlan.parse("raise:*x1"),
            **AUDIT,
        )
        assert_results_identical(faulty, baseline_parallel)
        assert_results_identical(faulty, baseline_serial)
        assert not faulty.failures.ok
        assert faulty.failures.retries >= 1
        assert faulty.failures.chunks_degraded == 0
        assert faulty.stats.retries == faulty.failures.retries
        assert all(record.kind == "error" for record in faulty.failures.records)

    def test_killed_worker_respawns_pool(self, baseline_parallel):
        """A worker dying mid-chunk breaks the pool; the engine respawns
        it, resubmits incomplete chunks, and still merges identically."""
        faulty = run_audit(
            OPERATORS,
            AXIOMS,
            VOCAB2,
            jobs=2,
            faults=FaultPlan.parse("kill:0.0x1"),
            **AUDIT,
        )
        assert_results_identical(faulty, baseline_parallel)
        assert faulty.failures.worker_crashes >= 1
        assert faulty.failures.pool_restarts >= 1
        assert faulty.stats.worker_crashes == faulty.failures.worker_crashes
        assert any(record.kind == "crash" for record in faulty.failures.records)

    def test_hung_chunk_reaped_by_timeout(self, baseline_parallel):
        """A chunk sleeping far past the per-chunk budget is reaped (the
        pool is recycled — hung workers cannot be cancelled) and retried."""
        faulty = run_audit(
            OPERATORS,
            AXIOMS,
            VOCAB2,
            jobs=2,
            chunk_timeout=0.75,
            faults=FaultPlan(
                (FaultSpec("hang", unit=0, ordinal=1, times=1),),
                hang_seconds=30.0,
            ),
            **AUDIT,
        )
        assert_results_identical(faulty, baseline_parallel)
        assert faulty.failures.retries >= 1
        assert faulty.failures.pool_restarts >= 1
        assert any(record.kind == "timeout" for record in faulty.failures.records)

    def test_retry_exhaustion_degrades_to_parent_serial(self, baseline_parallel):
        """A chunk failing on *every* attempt exhausts its retries and is
        re-evaluated serially in the parent, where faults never fire."""
        faulty = run_audit(
            OPERATORS,
            AXIOMS,
            VOCAB2,
            jobs=2,
            max_retries=1,
            faults=FaultPlan.parse("raise:0.1x0"),
            **AUDIT,
        )
        assert_results_identical(faulty, baseline_parallel)
        assert faulty.failures.chunks_degraded == 1
        assert faulty.stats.chunks_degraded == 1
        assert any(record.degraded for record in faulty.failures.records)
        assert "degraded" in faulty.failures.describe()

    def test_stop_at_first_reports_first_counterexample_under_faults(self):
        """Even with every chunk faulting once, ``stop_at_first`` must
        still converge on the globally first counterexample — retries
        must not let a later chunk's hit leapfrog an earlier one."""
        operator = ReveszFitting()
        axiom = axiom_by_name("A8")
        serial = run_audit([operator], [axiom], VOCAB2, jobs=1, **AUDIT)
        faulty = run_audit(
            [operator],
            [axiom],
            VOCAB2,
            jobs=2,
            faults=FaultPlan.parse("raise:*x1"),
            **AUDIT,
        )
        expected = serial.results[operator.name][axiom.name]
        got = faulty.results[operator.name][axiom.name]
        assert not expected.holds
        assert got == expected

    def test_faults_from_environment(
        self, monkeypatch, baseline_parallel
    ):
        """``REPRO_FAULTS`` injects without touching call sites — the
        hook the CI fault lane uses."""
        monkeypatch.setenv("REPRO_FAULTS", "raise:0.0x1")
        faulty = run_audit(OPERATORS, AXIOMS, VOCAB2, jobs=2, **AUDIT)
        assert_results_identical(faulty, baseline_parallel)
        assert not faulty.failures.ok
        assert faulty.failures.retries >= 1

    def test_shared_rng_survives_faults(self):
        """A caller-owned Random is refused at jobs=2 — with or without
        injected faults — before planning draws from it: the pool plans
        every cell's stream up front, which would hand later cells other
        scenarios than the serial loop's lazy draws."""
        for faults in (None, FaultPlan.parse("raise:*x1")):
            generator = random.Random(7)
            with pytest.raises(ReproError, match="integer seed"):
                run_audit(
                    OPERATORS, AXIOMS, VOCAB2, jobs=2,
                    max_scenarios=600, chunk_size=64, rng=generator,
                    faults=faults,
                )
            assert generator.getstate() == random.Random(7).getstate()


@dataclasses.dataclass(frozen=True)
class _Task:
    unit: int
    chunk: ChunkSpec
    attempt: int = 0


class _InlinePool:
    """An executor that runs each task at submission.  After ``accepted``
    tasks (``None``: never) every ``submit`` raises, as the ``submit`` of
    a process pool whose worker just died does."""

    def __init__(self, accepted=None):
        self._accepted = accepted

    def submit(self, fn, task):
        if self._accepted == 0:
            raise BrokenProcessPool("a worker died during submission")
        if self._accepted is not None:
            self._accepted -= 1
        future = Future()
        future.set_result(fn(task))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestBrokenDuringSubmission:
    def test_submit_into_broken_pool_is_a_recovered_crash(self):
        """A worker killed while the parent is still submitting the first
        tasks makes ``submit`` itself raise; the ladder must respawn the
        pool and run every task instead of letting the error escape."""
        executors = iter([_InlinePool(accepted=2), _InlinePool()])
        tasks = [_Task(0, ChunkSpec(ordinal=i, start=i, count=1)) for i in range(5)]
        handled = []

        def handle_outcome(task, outcome):
            handled.append(outcome)
            return False

        def serial_eval(task):
            raise AssertionError("no chunk should degrade")

        report = run_resilient(
            tasks,
            lambda task: task.chunk.ordinal,
            lambda: next(executors),
            handle_outcome,
            lambda task: False,
            serial_eval,
            ResilienceConfig(),
        )
        assert sorted(handled) == list(range(5))
        assert report.worker_crashes == 1
        assert report.pool_restarts == 1
        assert report.chunks_degraded == 0


class TestWeightedFaultRecovery:
    def test_weighted_faults_recover_identically(self):
        operator = WeightedModelFitting()
        base = run_weighted_audit(
            operator, WEIGHTED_AXIOMS, VOCAB2,
            scenarios=150, chunk_size=64, rng=3, jobs=2,
        )
        faulty = run_weighted_audit(
            operator, WEIGHTED_AXIOMS, VOCAB2,
            scenarios=150, chunk_size=64, rng=3, jobs=2,
            faults=FaultPlan.parse("raise:*x1"),
        )
        assert faulty.results == base.results
        assert not faulty.failures.ok
        assert faulty.failures.retries >= 1
        assert faulty.stats.retries == faulty.failures.retries

    def test_weighted_retry_exhaustion_degrades(self):
        operator = WeightedModelFitting()
        base = run_weighted_audit(
            operator, WEIGHTED_AXIOMS, VOCAB2,
            scenarios=150, chunk_size=64, rng=3, jobs=2,
            stop_at_first=False,
        )
        faulty = run_weighted_audit(
            operator, WEIGHTED_AXIOMS, VOCAB2,
            scenarios=150, chunk_size=64, rng=3, jobs=2,
            stop_at_first=False,
            max_retries=1,
            faults=FaultPlan.parse("raise:1.1x0"),
        )
        assert faulty.results == base.results
        assert faulty.failures.chunks_degraded == 1
        assert faulty.stats.chunks_degraded == 1
