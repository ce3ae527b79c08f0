"""Tests for the zero-copy shared-memory arena and the journaled resume.

Two contracts from PR 7 are pinned here:

* the arena is a *transport*, never a semantics change: audits with the
  arena on, off, or partially failed-to-attach are cell-identical, and
  no ``repro-arena-*`` segment outlives its run — not even when chunks
  raise, workers are killed, or hung chunks are reaped;
* the chunk journal is durable and exact: a SIGKILLed journaled sweep
  resumes to the same matrix an uninterrupted run produces — including
  the *first* counterexample under ``stop_at_first``, which must come
  from the min-global-index merge over replayed and fresh chunks alike.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")

from repro import obs
from repro.bench.experiments import standard_operators
from repro.core.fitting import ReveszFitting
from repro.core.weighted import WeightedModelFitting
from repro.engine.faults import FaultPlan, FaultSpec
from repro.engine.journal import ChunkJournal
from repro.engine.pool import run_audit
from repro.engine.shm import (
    MIN_SHARED_BYTES,
    SEGMENT_PREFIX,
    Arena,
    ArenaView,
    shm_available,
)
from repro.engine.weighted import run_weighted_audit
from repro.errors import ReproError
from repro.logic.interpretation import Vocabulary
from repro.operators.revision import DalalRevision
from repro.postulates.axioms import axiom_by_name
from repro.postulates.matrix import compute_matrix

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="needs numpy + multiprocessing.shared_memory"
)

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

VOCAB3 = Vocabulary(["a", "b", "c"])
OPERATORS = [DalalRevision(), ReveszFitting()]
AXIOMS = [axiom_by_name("R1"), axiom_by_name("R2"), axiom_by_name("A8")]

#: Big enough that the apply-table prefill trips (total scenarios across
#: the six units clears TABLE_PREFILL_MIN_SCENARIOS), so the arena has
#: segments to publish even though the 8×8 matrices at three atoms fall
#: under MIN_SHARED_BYTES.
AUDIT = dict(max_scenarios=800, rng=7, chunk_size=64)


def shm_names() -> set[str]:
    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-tmpfs platforms
        return set()
    return {path.name for path in root.glob(f"{SEGMENT_PREFIX}-*")}


def _children(pid: int) -> list[int]:
    """The live child pids of ``pid`` (Linux procfs); empty once it exits."""
    try:
        listing = Path(f"/proc/{pid}/task/{pid}/children").read_text()
    except OSError:
        return []
    return [int(child) for child in listing.split()]


def _alive(pid: int) -> bool:
    """Whether ``pid`` still runs; a zombie nobody reaped counts as dead."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test must leave /dev/shm exactly as it found it."""
    before = shm_names()
    yield
    leaked = shm_names() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@pytest.fixture(autouse=True)
def hang_guard():
    """Abort instead of wedging CI if an injected hang is not reaped."""
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return

    def on_alarm(signum, frame):
        raise RuntimeError("test exceeded the 180s hang guard")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(180)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_results_identical(outcome, baseline) -> None:
    for op_name, per_axiom in baseline.results.items():
        for axiom_name, expected in per_axiom.items():
            got = outcome.results[op_name][axiom_name]
            assert got == expected, f"{op_name}/{axiom_name}"


class TestArena:
    def test_array_and_blob_roundtrip(self):
        payload = np.arange(64, dtype=np.int64).reshape(8, 8)
        with Arena() as arena:
            arena.publish_array("matrix:0", payload)
            arena.publish_bytes("roster", b"roster-bytes")
            view = ArenaView.attach(arena.directory())
            mapped = view.array("matrix:0")
            assert mapped is not None
            assert np.array_equal(mapped, payload)
            assert not mapped.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                mapped[0, 0] = 99
            assert view.blob("roster") == b"roster-bytes"
            assert view.failures == 0
            assert view.bytes_mapped == payload.nbytes + len(b"roster-bytes")
            names = {spec.name for spec in arena.directory().segments}
            assert names <= shm_names()
            del mapped  # views must drop before the mappings close
            view.close()
        # close() unlinked every owned segment
        assert not names & shm_names()

    def test_content_dedupe_shares_one_segment(self):
        payload = np.ones(1024, dtype=np.int64)
        with Arena() as arena:
            first = arena.publish_array("matrix:0", payload)
            second = arena.publish_array("matrix:1", payload.copy())
            assert first.name == second.name
            assert arena.segment_count == 1
            view = ArenaView.attach(arena.directory())
            assert np.array_equal(view.array("matrix:0"), view.array("matrix:1"))
            view.close()

    def test_duplicate_key_refused(self):
        with Arena() as arena:
            arena.publish_bytes("roster", b"x")
            with pytest.raises(ValueError, match="published twice"):
                arena.publish_bytes("roster", b"y")

    def test_publish_after_close_refused(self):
        arena = Arena()
        arena.close()
        arena.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            arena.publish_bytes("roster", b"x")

    def test_attach_failures_never_raise_and_are_counted(self):
        payload = np.arange(512, dtype=np.int64)
        with Arena() as arena:
            good = arena.publish_array("good", payload)
            directory = arena.directory()
            # A directory entry whose checksum disagrees with the mapped
            # header models a torn/stale segment; a vanished name models
            # a platform-level unlink.  Neither may raise.
            torn = dataclasses.replace(good, key="torn", crc32=good.crc32 ^ 1)
            gone = dataclasses.replace(
                good, key="gone", name=f"{SEGMENT_PREFIX}-0-missing"
            )
            doctored = dataclasses.replace(
                directory, segments=directory.segments + (torn, gone)
            )
            with obs.use() as registry:
                view = ArenaView.attach(doctored)
                assert view.array("good") is not None
                assert view.array("torn") is None
                assert view.array("gone") is None
                assert view.failures == 2
                payload_metrics = obs.metrics_payload(registry)
            view.close()
        assert payload_metrics["counters"]["engine.shm_attach_failures"] == 2
        assert (
            payload_metrics["counters"]["engine.shm_bytes_mapped"]
            == payload.nbytes
        )

    def test_parent_view_needs_no_reattach(self):
        payload = np.arange(256, dtype=np.int64)
        with Arena() as arena:
            arena.publish_array("matrix:0", payload)
            arena.publish_bytes("roster", b"blob")
            view = arena.view()
            assert np.array_equal(view.array("matrix:0"), payload)
            assert view.blob("roster") == b"blob"
            del view  # parent-view arrays alias the arena's own mappings

    def test_verify_reports_vanished_segments(self):
        with Arena() as arena:
            spec = arena.publish_array("m", np.zeros(128, dtype=np.int64))
            assert arena.verify() == []
            # Simulate an external unlink, then re-register the name so
            # Arena.close() still unlinks exactly once without error.
            from multiprocessing import shared_memory

            probe = shared_memory.SharedMemory(name=spec.name)
            probe.unlink()
            probe.close()
            assert arena.verify() == [spec.name]


class TestAuditParity:
    def test_boolean_shm_on_off_serial_identical(self):
        serial = run_audit(OPERATORS, AXIOMS, VOCAB3, jobs=1, **AUDIT)
        with_shm = run_audit(
            OPERATORS, AXIOMS, VOCAB3, jobs=2, shm=True, **AUDIT
        )
        without_shm = run_audit(
            OPERATORS, AXIOMS, VOCAB3, jobs=2, shm=False, **AUDIT
        )
        assert_results_identical(with_shm, serial)
        assert_results_identical(without_shm, serial)
        assert with_shm.stats.shm_segments > 0
        assert with_shm.stats.shm_bytes >= MIN_SHARED_BYTES
        assert without_shm.stats.shm_segments == 0

    def test_weighted_shm_on_off_serial_identical(self):
        vocabulary = Vocabulary([chr(ord("a") + i) for i in range(7)])
        operator = WeightedModelFitting()
        kwargs = dict(
            vocabulary=vocabulary, scenarios=40, rng=3, chunk_size=8
        )
        serial = run_weighted_audit(operator, jobs=1, **kwargs)
        with_shm = run_weighted_audit(operator, jobs=2, shm=True, **kwargs)
        without_shm = run_weighted_audit(operator, jobs=2, shm=False, **kwargs)
        assert with_shm.results == serial.results
        assert without_shm.results == serial.results
        assert with_shm.stats.shm_segments > 0
        assert without_shm.stats.shm_segments == 0


VOCAB7 = Vocabulary([chr(ord("a") + i) for i in range(7)])


def boolean_audit(**kwargs):
    return run_audit(OPERATORS, AXIOMS, VOCAB3, jobs=2, shm=True, **AUDIT, **kwargs)


def weighted_audit(**kwargs):
    # At 7 atoms the 128x128 float64 matrix (128 KiB) clears
    # MIN_SHARED_BYTES, so the arena is really published; fitting holds
    # F1-F8, so no chunk is pruned before a fault aimed at it fires.
    return run_weighted_audit(
        WeightedModelFitting(),
        vocabulary=VOCAB7,
        scenarios=40,
        rng=3,
        chunk_size=8,
        jobs=2,
        shm=True,
        **kwargs,
    )


@pytest.mark.parametrize(
    "audit", [boolean_audit, weighted_audit], ids=["boolean", "weighted"]
)
class TestNoLeaksUnderFaults:
    """The arena's sole-owner unlink must hold on every resilience rung,
    for both engines: the shared sweep runner closes the arena on every
    exit."""

    def test_no_leak_when_chunks_raise(self, audit):
        clean = audit()
        faulty = audit(faults=FaultPlan.parse("raise:*x1"))
        assert faulty.results == clean.results
        assert faulty.stats.shm_segments > 0
        assert faulty.failures.retries >= 1

    def test_no_leak_when_worker_killed(self, audit):
        clean = audit()
        faulty = audit(faults=FaultPlan.parse("kill:0.0x1"))
        assert faulty.results == clean.results
        assert faulty.stats.shm_segments > 0
        assert faulty.failures.pool_restarts >= 1

    def test_no_leak_when_hung_chunk_reaped(self, audit):
        clean = audit()
        faulty = audit(
            chunk_timeout=0.75,
            faults=FaultPlan(
                (FaultSpec("hang", unit=0, ordinal=1, times=1),),
                hang_seconds=30.0,
            ),
        )
        assert faulty.results == clean.results
        assert faulty.stats.shm_segments > 0
        assert faulty.failures.pool_restarts >= 1


class TestJournaledAudit:
    def test_serial_and_unseeded_refused(self, tmp_path):
        with pytest.raises(ReproError, match="jobs"):
            run_audit(
                OPERATORS,
                AXIOMS,
                VOCAB3,
                jobs=1,
                journal_dir=str(tmp_path / "j"),
                **AUDIT,
            )
        with pytest.raises(ReproError, match="resume"):
            run_audit(OPERATORS, AXIOMS, VOCAB3, jobs=2, resume=True, **AUDIT)
        import random

        with pytest.raises(ReproError, match="seed"):
            run_audit(
                OPERATORS,
                AXIOMS,
                VOCAB3,
                jobs=2,
                max_scenarios=800,
                rng=random.Random(7),
                chunk_size=64,
                journal_dir=str(tmp_path / "j2"),
            )

    def test_resume_refuses_config_drift(self, tmp_path):
        journal_dir = str(tmp_path / "j")
        run_audit(
            OPERATORS, AXIOMS, VOCAB3, jobs=2, journal_dir=journal_dir, **AUDIT
        )
        with pytest.raises(ReproError):
            run_audit(
                OPERATORS,
                AXIOMS,
                VOCAB3,
                jobs=2,
                max_scenarios=AUDIT["max_scenarios"] + 1,
                rng=AUDIT["rng"],
                chunk_size=AUDIT["chunk_size"],
                journal_dir=journal_dir,
                resume=True,
            )

    def test_truncated_journal_resumes_to_identical_matrix(self, tmp_path):
        baseline = run_audit(OPERATORS, AXIOMS, VOCAB3, jobs=2, **AUDIT)
        journal_dir = str(tmp_path / "j")
        full = run_audit(
            OPERATORS, AXIOMS, VOCAB3, jobs=2, journal_dir=journal_dir, **AUDIT
        )
        assert_results_identical(full, baseline)
        journal = ChunkJournal(journal_dir)
        lines = journal.journal_path.read_text().splitlines(keepends=True)
        assert len(lines) >= 4, "workload too small to truncate meaningfully"
        kept = 3
        journal.journal_path.write_text("".join(lines[:kept]))
        resumed = run_audit(
            OPERATORS,
            AXIOMS,
            VOCAB3,
            jobs=2,
            journal_dir=journal_dir,
            resume=True,
            **AUDIT,
        )
        assert_results_identical(resumed, baseline)
        assert resumed.stats.chunks_skipped == kept

    def test_resumed_counterexample_stays_first(self, tmp_path):
        """Satellite fix: a pre-kill counterexample must still be the
        sweep's *first* after resume — the replayed chunk enters the same
        min-global-index merge as freshly evaluated ones."""
        operators = [ReveszFitting()]
        axioms = [axiom_by_name("A8")]
        shape = dict(max_scenarios=800, rng=7, chunk_size=32)
        baseline = run_audit(operators, axioms, VOCAB3, jobs=2, **shape)
        expected = baseline.results["revesz-odist"]["A8"]
        assert not expected.holds, "workload no longer produces the A8 CE"
        journal_dir = str(tmp_path / "j")
        run_audit(
            operators, axioms, VOCAB3, jobs=2, journal_dir=journal_dir, **shape
        )
        journal = ChunkJournal(journal_dir)
        ce_lines = [
            line
            for line in journal.journal_path.read_text().splitlines(
                keepends=True
            )
            if json.loads(line).get("ce") is not None
        ]
        assert ce_lines, "journal recorded no counterexample chunk"
        # Keep ONLY the counterexample-bearing record: every other chunk
        # is re-evaluated on resume and must not displace it.
        journal.journal_path.write_text(ce_lines[0])
        resumed = run_audit(
            operators,
            axioms,
            VOCAB3,
            jobs=2,
            journal_dir=journal_dir,
            resume=True,
            **shape,
        )
        got = resumed.results["revesz-odist"]["A8"]
        assert got == expected
        assert got.counterexample == expected.counterexample
        assert resumed.stats.chunks_skipped == 1

    def test_sigkill_then_resume_matches_uninterrupted(self, tmp_path):
        """A hard kill mid-sweep loses nothing but unjournaled chunks."""
        journal_dir = str(tmp_path / "j")
        args = [
            sys.executable, "-m", "repro", "audit",
            "--atoms-count", "2", "--scenarios", "4000", "--jobs", "2",
            "--operator", "dalal", "--operator", "revesz-odist",
            "--journal", journal_dir,
        ]
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        process = subprocess.Popen(
            args, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        journal_path = Path(journal_dir) / "journal.jsonl"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if journal_path.is_file() and journal_path.stat().st_size > 0:
                break
            if process.poll() is not None:
                break  # finished before the kill — resume still must work
            time.sleep(0.02)
        children = _children(process.pid)
        journaled = journal_path.stat().st_size if journal_path.is_file() else 0
        if process.poll() is None:
            if children or not Path("/proc").is_dir():
                process.send_signal(signal.SIGKILL)
            else:
                # No pool left while the CLI still runs: the sweep must
                # be over and the CLI exiting on its own — so the journal
                # was already complete.  A sweep still writing records
                # here ran without its pool workers.
                assert process.wait(timeout=60) == 0
                assert journal_path.stat().st_size == journaled, (
                    "the sweep's pool workers were not started"
                )
        process.wait(timeout=60)
        # The CLI process may have died between segment creation and its
        # arena cleanup; its resource_tracker unlinks them at teardown,
        # which the autouse leak fixture then confirms.
        # Pool workers notice the dead parent and exit on their own
        # instead of sleeping on the call queue, reparented to init.
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in children):
            assert time.monotonic() < deadline, (
                f"orphaned children: {[pid for pid in children if _alive(pid)]}"
            )
            time.sleep(0.05)

        operators = [
            op
            for op in standard_operators()
            if op.name in ("dalal", "revesz-odist")
        ]
        vocabulary = Vocabulary(["a", "b"])
        resumed = compute_matrix(
            operators,
            vocabulary,
            max_scenarios=4000,
            jobs=2,
            journal_dir=journal_dir,
            resume=True,
        )
        baseline = compute_matrix(
            operators, vocabulary, max_scenarios=4000, jobs=2
        )
        assert resumed.operators == baseline.operators
        assert resumed.axioms == baseline.axioms
        for op_name in baseline.operators:
            for axiom_name in baseline.axioms:
                assert (
                    resumed.results[op_name][axiom_name]
                    == baseline.results[op_name][axiom_name]
                ), f"{op_name}/{axiom_name}"


class TestObservability:
    def test_shm_and_resume_metrics_published(self, tmp_path):
        journal_dir = str(tmp_path / "j")
        with obs.use() as registry:
            run_audit(
                OPERATORS,
                AXIOMS,
                VOCAB3,
                jobs=2,
                shm=True,
                journal_dir=journal_dir,
                **AUDIT,
            )
            first = obs.metrics_payload(registry)
        assert first["gauges"]["engine.shm_segments"] > 0
        assert first["counters"]["engine.shm_bytes_mapped"] > 0
        assert first["counters"]["engine.shm_attach_failures"] == 0
        assert "engine.chunks_skipped_resume" not in first["counters"]

        journal = ChunkJournal(journal_dir)
        lines = journal.journal_path.read_text().splitlines(keepends=True)
        journal.journal_path.write_text("".join(lines[:2]))
        with obs.use() as registry:
            run_audit(
                OPERATORS,
                AXIOMS,
                VOCAB3,
                jobs=2,
                shm=True,
                journal_dir=journal_dir,
                resume=True,
                **AUDIT,
            )
            second = obs.metrics_payload(registry)
        assert second["counters"]["engine.chunks_skipped_resume"] == 2

        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(
            (Path(__file__).parent / "data" / "metrics.schema.json").read_text()
        )
        jsonschema.validate(first, schema)
        jsonschema.validate(second, schema)
