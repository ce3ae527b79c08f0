"""Tests for the batched, parallel postulate-audit engine.

The engine's contract is bit-identity with the legacy serial harness:
same verdicts, same scenario counts, and the same *first* counterexample,
whether chunks run in-process or across a pool.  These tests pin that
contract on small vocabularies where the serial path is cheap enough to
recompute from scratch.
"""

import json
import os
import pickle
import random
import subprocess
import sys
import textwrap
from itertools import islice, product
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bench.experiments import standard_operators
from repro.core.fitting import ReveszFitting
from repro.engine.batched import BatchedOperator, bits_of_model_set
from repro.engine.chunks import (
    DEFAULT_CHUNK_SIZE,
    decode_chunk,
    plan_scenarios,
    sample_scenario_bits,
)
from repro.engine.pool import (
    _build_worker_state,
    _chunk_task,
    _operator_ordinal,
    _plan_units,
    _pool_tasks,
    evaluate_chunks,
    run_audit,
)
from repro.logic.interpretation import Vocabulary
from repro.operators.revision import DalalRevision
from repro.postulates.axioms import ALL_AXIOMS, axiom_by_name
from repro.postulates.harness import check_axiom, sampled_scenarios
from repro.postulates.matrix import compute_matrix

VOCAB1 = Vocabulary(["a"])
VOCAB2 = Vocabulary(["a", "b"])
VOCAB3 = Vocabulary(["a", "b", "c"])


class TestParallelDeterminism:
    def test_full_sweep_identical_on_one_atom(self):
        """Every operator × every axiom: jobs=1 and jobs=4 agree cell by
        cell (CheckResult equality covers holds, counts, exhaustiveness,
        and the full counterexample content)."""
        operators = standard_operators()
        serial = run_audit(operators, ALL_AXIOMS, VOCAB1, jobs=1)
        parallel = run_audit(operators, ALL_AXIOMS, VOCAB1, jobs=4)
        assert serial.stats.serial_fallback
        assert not parallel.stats.serial_fallback
        for operator in operators:
            for axiom in ALL_AXIOMS:
                left = serial.results[operator.name][axiom.name]
                right = parallel.results[operator.name][axiom.name]
                assert left == right, f"{operator.name}/{axiom.name}"

    def test_first_counterexample_without_early_stop(self):
        """stop_at_first=False must report the *first* violation in
        enumeration order — the pool's min-index merge and the serial
        scan must pick the same scenario."""
        operator = ReveszFitting()
        axiom = axiom_by_name("A8")
        serial = check_axiom(
            operator, axiom, VOCAB2, stop_at_first=False, jobs=1
        )
        parallel = check_axiom(
            operator, axiom, VOCAB2, stop_at_first=False, jobs=4
        )
        assert not serial.holds
        assert serial == parallel
        # Without early stop, the full (truncated) space is counted.
        assert serial.scenarios_checked == parallel.scenarios_checked

    def test_early_stop_counts_match(self):
        """stop_at_first=True counts scenarios up to and including the
        first violation, identically in both modes."""
        operator = ReveszFitting()
        axiom = axiom_by_name("A8")
        serial = check_axiom(operator, axiom, VOCAB2, stop_at_first=True, jobs=1)
        parallel = check_axiom(
            operator, axiom, VOCAB2, stop_at_first=True, jobs=4
        )
        assert serial == parallel

    def test_sampled_mode_identical(self):
        """Three atoms force sampling; captured per-chunk RNG states must
        replay the exact serial stream."""
        operator = DalalRevision()
        axiom = axiom_by_name("R5")
        serial = check_axiom(
            operator, axiom, VOCAB3, max_scenarios=300, rng=7, jobs=1
        )
        parallel = check_axiom(
            operator, axiom, VOCAB3, max_scenarios=300, rng=7, jobs=3
        )
        assert not serial.exhaustive
        assert serial == parallel


class TestPickling:
    @pytest.mark.parametrize(
        "operator", standard_operators(), ids=lambda op: op.name
    )
    def test_operator_round_trip(self, operator):
        """Operators ship to workers by pickle; the copy must behave
        identically."""
        clone = pickle.loads(pickle.dumps(operator))
        assert clone.name == operator.name
        assert clone.family == operator.family
        scenario = next(sampled_scenarios(VOCAB2, 2, 1, rng=5))
        psi, mu = scenario
        assert clone.apply_models(psi, mu) == operator.apply_models(psi, mu)

    @pytest.mark.parametrize("axiom", ALL_AXIOMS, ids=lambda a: a.name)
    def test_axiom_round_trip(self, axiom):
        clone = pickle.loads(pickle.dumps(axiom))
        assert clone.name == axiom.name
        assert clone.roles == axiom.roles
        operator = DalalRevision()
        scenario = tuple(
            islice(sampled_scenarios(VOCAB2, len(axiom.roles), 1, rng=9), 1)
        )[0]
        assert clone.check_instance(operator, scenario) == axiom.check_instance(
            operator, scenario
        )


class TestBatchedCaches:
    def test_batched_operator_reuses_keys_and_results(self):
        """Recurring ψ must hit the key cache; recurring (ψ, μ) pairs the
        result cache — the engine's whole premise."""
        batched = BatchedOperator(DalalRevision(), VOCAB2)
        assert batched.batched
        for _ in range(3):
            for mu_bits in range(1, 16):
                batched.apply_bits(5, mu_bits)
        info = batched.cache_info()
        assert info["keys"].hits > 0
        assert info["results"].hits > 0
        assert info["keys"].misses == 1  # one distinct ψ

    def test_engine_stats_report_cache_hits(self):
        """A parallel audit over recurring KBs must show nonzero cache
        hits in the merged worker stats."""
        outcome = run_audit(
            [DalalRevision()],
            [axiom_by_name("R2"), axiom_by_name("R5")],
            VOCAB2,
            max_scenarios=2_000,
            jobs=2,
        )
        assert outcome.stats.key_hits > 0
        # result_hits can be 0 here: the apply table dedupes repeated
        # (ψ, μ) pairs before they reach the result cache.  Misses still
        # count the unique pairs actually computed.
        assert outcome.stats.result_misses > 0
        assert outcome.stats.scenarios > 0

    def test_batched_matches_scalar_operator(self):
        """The batched evaluator must reproduce the wrapped operator's
        output bits for every (ψ, μ) over the full two-atom universe."""
        operator = DalalRevision()
        batched = BatchedOperator(operator, VOCAB2)
        for psi_bits, mu_bits in product(range(16), repeat=2):
            scalar = bits_of_model_set(
                operator.apply_models(
                    _model_set(VOCAB2, psi_bits), _model_set(VOCAB2, mu_bits)
                )
            )
            assert batched.apply_bits(psi_bits, mu_bits) == scalar


class TestApplyTable:
    def test_lazy_fill_in_a_fresh_process_leaves_numpy_ma_unimported(self):
        """A lookup with missing (ψ, μ) pairs fills each entry with
        ``apply_bits(ψ, μ)``, and its dedupe imports no ``numpy.ma``: a
        2-D ``np.unique(..., axis=0)`` would, which costs every pool
        worker's first lazily filled table several milliseconds."""
        script = textwrap.dedent(
            """
            import sys

            import numpy as np

            from repro.engine.batched import BatchedOperator
            from repro.engine.bitops import ApplyTable
            from repro.logic.interpretation import Vocabulary
            from repro.operators.revision import DalalRevision

            batched = BatchedOperator(DalalRevision(), Vocabulary(["a", "b"]))
            table = ApplyTable(batched, 16)
            psi = [5, 3, 5, 0, 15, 3, 6]
            mu = [9, 12, 9, 7, 1, 12, 9]
            values = table.lookup(
                np.array(psi, dtype=np.int64), np.array(mu, dtype=np.int64)
            )
            expected = [batched.apply_bits(p, m) for p, m in zip(psi, mu)]
            assert values.tolist() == expected, (values.tolist(), expected)
            assert table.filled == 5, table.filled
            print("numpy.ma" in sys.modules)
            """
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


# One shared wrapper per (operator, vocabulary) for the differential fuzz:
# the point is to fuzz *through* the key/result caches, not to rebuild
# matrices per example.
_FUZZ_VOCABULARIES = {1: VOCAB1, 2: VOCAB2, 3: VOCAB3}
_FUZZ_BATCHED = {
    (name, size): BatchedOperator(factory(), vocabulary)
    for name, factory in (("dalal", DalalRevision), ("odist", ReveszFitting))
    for size, vocabulary in _FUZZ_VOCABULARIES.items()
}
_FUZZ_SCALAR = {"dalal": DalalRevision(), "odist": ReveszFitting()}


class TestDifferentialFuzz:
    """Hypothesis-driven differentials: the batched bit-level evaluator
    vs. the scalar operator, and parallel vs. serial whole-matrix audits
    over randomized vocabularies."""

    @pytest.mark.parametrize("name", ["dalal", "odist"])
    @settings(max_examples=200)
    @given(data=st.data())
    def test_apply_bits_matches_scalar(self, name, data):
        """Random (ψ, μ) bit-vectors over vocabularies of 1–3 atoms:
        ``Mod(ψ ▷ μ)`` from the matrix-batched path must equal the scalar
        operator's, bit for bit — including unsatisfiable arguments."""
        size = data.draw(st.integers(min_value=1, max_value=3), label="atoms")
        vocabulary = _FUZZ_VOCABULARIES[size]
        space = 1 << vocabulary.interpretation_count
        psi_bits = data.draw(st.integers(min_value=0, max_value=space - 1), label="psi")
        mu_bits = data.draw(st.integers(min_value=0, max_value=space - 1), label="mu")
        batched = _FUZZ_BATCHED[(name, size)]
        assert batched.batched
        expected = bits_of_model_set(
            _FUZZ_SCALAR[name].apply_models(
                _model_set(vocabulary, psi_bits), _model_set(vocabulary, mu_bits)
            )
        )
        assert batched.apply_bits(psi_bits, mu_bits) == expected

    @pytest.mark.parametrize("seed", [0, 11, 23])
    def test_matrix_identical_across_jobs_on_random_vocabularies(self, seed):
        """Whole audit matrices agree cell by cell between jobs=1 and
        jobs=2, over vocabularies with randomized atom names and seeded
        sampling streams."""
        generator = random.Random(seed)
        letters = list("nopqrstuvwxyz")
        generator.shuffle(letters)
        vocabulary = Vocabulary(letters[: generator.choice([2, 3])])
        operators = [DalalRevision(), ReveszFitting()]
        axioms = [axiom_by_name(name) for name in ("R1", "R2", "A2", "A8")]
        serial = compute_matrix(
            operators,
            vocabulary,
            axioms,
            max_scenarios=300,
            rng=seed,
            jobs=1,
        )
        parallel = compute_matrix(
            operators,
            vocabulary,
            axioms,
            max_scenarios=300,
            rng=seed,
            jobs=2,
        )
        assert serial.operators == parallel.operators
        assert serial.axioms == parallel.axioms
        for operator in serial.operators:
            for axiom in serial.axioms:
                left = serial.results[operator][axiom]
                right = parallel.results[operator][axiom]
                assert left == right, f"{operator}/{axiom} (seed {seed})"


class TestChunking:
    def test_enumerated_chunks_cover_product_order(self):
        """Concatenated chunk decodes must equal itertools.product over
        model-set bits — the legacy exhaustive order."""
        plan = plan_scenarios(VOCAB2, roles=2, max_scenarios=10_000, chunk_size=37)
        assert plan.mode == "enumerate"
        assert plan.exhaustive
        decoded = [
            scenario
            for chunk in plan.chunks
            for scenario in decode_chunk(plan, chunk)
        ]
        expected = list(product(range(16), repeat=2))
        assert decoded == expected

    def test_sampled_chunks_replay_serial_stream(self):
        """Per-chunk RNG snapshots must reproduce the one serial stream."""
        plan = plan_scenarios(VOCAB3, roles=3, max_scenarios=500, rng=7, chunk_size=64)
        assert plan.mode == "sample"
        assert not plan.exhaustive
        decoded = [
            scenario
            for chunk in plan.chunks
            for scenario in decode_chunk(plan, chunk)
        ]
        generator = random.Random(7)
        expected = sample_scenario_bits(
            generator, 3, 500, VOCAB3.interpretation_count
        )
        assert decoded == expected
        # And the legacy harness draws the same model sets from the seed.
        legacy = [
            tuple(bits_of_model_set(role) for role in scenario)
            for scenario in sampled_scenarios(VOCAB3, 3, 500, rng=7)
        ]
        assert decoded == legacy

    def test_enumeration_truncates_at_max_scenarios(self):
        """An enumerable space larger than max_scenarios is truncated and
        flagged non-exhaustive — in the plan and in check_axiom."""
        plan = plan_scenarios(VOCAB2, roles=3, max_scenarios=100)
        assert plan.mode == "enumerate"
        assert plan.total == 100
        assert not plan.exhaustive
        result = check_axiom(
            DalalRevision(), axiom_by_name("R5"), VOCAB2, max_scenarios=100
        )
        assert result.scenarios_checked <= 100
        assert not result.exhaustive
        parallel = check_axiom(
            DalalRevision(),
            axiom_by_name("R5"),
            VOCAB2,
            max_scenarios=100,
            jobs=2,
        )
        assert result == parallel


def _model_set(vocabulary, bits):
    from repro.engine.batched import model_set_of_bits

    return model_set_of_bits(vocabulary, bits)


class _AliasedDalal(DalalRevision):
    """Dalal under its own roster name, comparing equal across classes.

    Operators with custom ``__eq__`` break ``list.index``-style identity
    resolution; the engine must track roster *positions*, not equality.
    """

    def __init__(self):
        super().__init__()
        self.name = "dalal-aliased"

    def __eq__(self, other):
        return isinstance(other, (_AliasedDalal, _AliasedFitting))

    def __hash__(self):
        return 11


class _AliasedFitting(ReveszFitting):
    """Revesz fitting that compares equal to :class:`_AliasedDalal`."""

    def __init__(self):
        super().__init__()
        self.name = "fitting-aliased"

    def __eq__(self, other):
        return isinstance(other, (_AliasedDalal, _AliasedFitting))

    def __hash__(self):
        return 11


class TestRosterResolution:
    """Operators and axioms are identified by roster position + unique
    name, never by equality or ``.index`` lookups (which mis-resolve
    equal-comparing operators and silently clobber duplicate names)."""

    def test_equal_comparing_operators_keep_distinct_verdicts(self):
        """Two operators that compare equal but behave differently must
        each get their own verdicts — ``operators.index`` would have sent
        every chunk of both to the first one."""
        operators = [_AliasedDalal(), _AliasedFitting()]
        axioms = [axiom_by_name("A2"), axiom_by_name("A8")]
        serial = run_audit(operators, axioms, VOCAB2, max_scenarios=600, jobs=1)
        parallel = run_audit(operators, axioms, VOCAB2, max_scenarios=600, jobs=2)
        for operator in operators:
            for axiom in axioms:
                left = serial.results[operator.name][axiom.name]
                right = parallel.results[operator.name][axiom.name]
                assert left == right, f"{operator.name}/{axiom.name}"
        # The two operators genuinely disagree somewhere, so a chunk
        # mis-routed to the wrong operator could not have gone unnoticed.
        assert any(
            parallel.results["dalal-aliased"][a.name].holds
            != parallel.results["fitting-aliased"][a.name].holds
            for a in axioms
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_duplicate_operator_names_rejected(self, jobs):
        with pytest.raises(ValueError, match="duplicate operator name"):
            run_audit(
                [DalalRevision(), DalalRevision()],
                [axiom_by_name("R1")],
                VOCAB2,
                jobs=jobs,
            )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_duplicate_axiom_names_rejected(self, jobs):
        axiom = axiom_by_name("R1")
        with pytest.raises(ValueError, match="duplicate axiom name"):
            run_audit([DalalRevision()], [axiom, axiom], VOCAB2, jobs=jobs)


class TestSharedRngContract:
    """``run_audit(jobs=1)`` with a caller-owned ``random.Random`` must
    consume the stream exactly like calling ``check_axiom`` per cell with
    that same generator — historically the serial path planned chunks
    first (fast-forwarding the stream) and then sampled again."""

    def test_jobs1_matches_direct_check_axiom_draw_for_draw(self):
        vocabulary = Vocabulary(["a", "b", "c", "d"])
        operators = [DalalRevision(), ReveszFitting()]
        axioms = [axiom_by_name("R5"), axiom_by_name("R6")]

        engine_rng = random.Random(42)
        outcome = run_audit(
            operators, axioms, vocabulary,
            max_scenarios=50, rng=engine_rng, jobs=1,
        )

        direct_rng = random.Random(42)
        for operator in operators:
            for axiom in axioms:
                expected = check_axiom(
                    operator, axiom, vocabulary,
                    max_scenarios=50, rng=direct_rng,
                )
                got = outcome.results[operator.name][axiom.name]
                assert got == expected, f"{operator.name}/{axiom.name}"
        # Draw-for-draw: both harnesses leave the generator in the same
        # state, so interleaving engine audits with other consumers of a
        # shared Random stays reproducible.
        assert engine_rng.getstate() == direct_rng.getstate()


class TestGroupedTasks:
    """A pool task is one operator's chunk ordinal across every axiom, so
    the work two workers do is the work one worker does alone."""

    def test_two_workers_resolve_what_one_worker_resolves(self):
        """Counted, not timed: ``result_misses`` are the (ψ, μ) pairs the
        workers' apply tables resolved.  When chunks of one operator
        scatter over both workers, each resolves most of the other's."""
        operators = standard_operators()
        audit = dict(max_scenarios=1_000, rng=77)
        pooled = run_audit(operators, ALL_AXIOMS, VOCAB3, jobs=2, shm=False, **audit)
        units = _plan_units(
            operators, ALL_AXIOMS, VOCAB3, 1_000, 77, DEFAULT_CHUNK_SIZE
        )
        state = _build_worker_state(VOCAB3, operators)
        alone = sum(
            chunk_outcome.result_misses
            for task in _pool_tasks(units, _chunk_task, _operator_ordinal, set(), 2)
            for chunk_outcome in evaluate_chunks(state, task.members)
        )
        assert alone > 0
        assert pooled.stats.result_misses <= 1.05 * alone
        assert pooled.stats.chunks == sum(len(unit.plan.chunks) for unit in units)

    #: Two operators at two atoms, not stopping at the first failure, so
    #: no task is pruned: 10 ordinals per operator, 4 for the arity-2 axioms.
    JOURNALED = dict(
        max_scenarios=600, rng=7, chunk_size=64, stop_at_first=False, jobs=2
    )

    @staticmethod
    def _journal_fsyncs(monkeypatch) -> list:
        """Record the (device, inode) of every file the run fsyncs."""
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            stat = os.fstat(fd)
            synced.append((stat.st_dev, stat.st_ino))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        return synced

    def test_one_journal_fsync_per_task(self, tmp_path, monkeypatch):
        """Each task's records reach the journal in one append: one fsync
        per (operator, ordinal), not one per (unit, ordinal)."""
        operators = [DalalRevision(), ReveszFitting()]
        synced = self._journal_fsyncs(monkeypatch)
        journal_dir = tmp_path / "j"
        outcome = run_audit(
            operators, ALL_AXIOMS, VOCAB2, journal_dir=journal_dir, **self.JOURNALED
        )
        journal = os.stat(journal_dir / "journal.jsonl")
        ordinals = max(
            len(plan_scenarios(VOCAB2, len(axiom.roles), 600, 7, 64).chunks)
            for axiom in ALL_AXIOMS
        )
        lines = (journal_dir / "journal.jsonl").read_text().splitlines()
        assert len(lines) == outcome.stats.chunks > len(operators) * ordinals
        assert synced.count((journal.st_dev, journal.st_ino)) == (
            len(operators) * ordinals
        )

    def test_resume_submits_only_unjournaled_members(self, tmp_path, monkeypatch):
        """A resumed sweep drops the journaled members from their tasks
        and submits no task left empty: with every record kept but one
        whole task's and one member of another, it evaluates exactly
        those members, in two tasks."""
        operators = [DalalRevision(), ReveszFitting()]
        journal_dir = tmp_path / "j"
        full = run_audit(
            operators, ALL_AXIOMS, VOCAB2, journal_dir=journal_dir, **self.JOURNALED
        )
        path = journal_dir / "journal.jsonl"
        lines = path.read_text().splitlines(keepends=True)

        def task_of(line):
            record = json.loads(line)
            return record["unit"] // len(ALL_AXIOMS), record["ordinal"]

        dropped = [line for line in lines if task_of(line) == (1, 3)]
        dropped.append(next(line for line in lines if task_of(line) == (0, 0)))
        path.write_text("".join(line for line in lines if line not in dropped))
        synced = self._journal_fsyncs(monkeypatch)
        resumed = run_audit(
            operators, ALL_AXIOMS, VOCAB2, journal_dir=journal_dir, resume=True,
            **self.JOURNALED,
        )
        assert resumed.results == full.results
        assert resumed.stats.chunks == len(dropped)
        assert resumed.stats.chunks_skipped == len(lines) - len(dropped)
        journal = os.stat(path)
        assert synced.count((journal.st_dev, journal.st_ino)) == 2

    def test_fewer_keys_than_workers_deal_members_over_every_worker(self):
        """One operator at one chunk ordinal is one key; at ``jobs=2``
        its axioms are dealt over two tasks, so no worker idles, and
        each member chunk is still evaluated exactly once."""
        operators = [DalalRevision()]
        units = _plan_units(operators, ALL_AXIOMS, VOCAB3, 500, 77, DEFAULT_CHUNK_SIZE)
        members = sorted((unit_id, 0) for unit_id in range(len(units)))
        for jobs, expected in ((1, 1), (2, 2), (4, 4)):
            tasks = _pool_tasks(units, _chunk_task, _operator_ordinal, set(), jobs)
            assert len(tasks) == expected
            assert sorted(
                (member.unit, member.chunk.ordinal)
                for task in tasks
                for member in task.members
            ) == members
        audit = dict(max_scenarios=500, rng=77, stop_at_first=False)
        pooled = run_audit(operators, ALL_AXIOMS, VOCAB3, jobs=2, **audit)
        serial = run_audit(operators, ALL_AXIOMS, VOCAB3, jobs=1, **audit)
        assert pooled.results == serial.results
        assert pooled.stats.chunks == len(units)
