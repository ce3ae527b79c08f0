"""Every postulate audit enters through one front door.

``run_audit`` is the single entry for Boolean sweeps and
``run_weighted_audit`` for weighted ones; the wrappers (``check_axiom``,
``audit_operator``, ``compute_matrix``, their symbolic mirrors,
``check_weighted_axiom``, ``audit_weighted_operator`` and ``repro
audit``) are one call each.  When each wrapper routed on its own, its
copy of the checks drifted from the others: the serial, pooled and
symbolic routes disagreed about duplicate names, job counts below one
and ``resume`` without a journal, and a pool sweep drew a shared
``random.Random`` differently from the serial loop.  Each test below
pins one of those divergences on every route.
"""

import io
import random

import pytest

from repro import obs
from repro.cli import main
from repro.core.weighted import WeightedArbitration, WeightedModelFitting
from repro.engine.pool import run_audit
from repro.engine.weighted import run_weighted_audit
from repro.errors import ReproError
from repro.logic.interpretation import Vocabulary
from repro.operators.revision import DalalRevision, SatohRevision
from repro.operators.update import WinslettUpdate
from repro.postulates.axioms import ALL_AXIOMS, axiom_by_name
from repro.postulates.harness import audit_operator, check_axiom
from repro.postulates.matrix import compute_matrix
from repro.postulates.weighted_axioms import (
    WEIGHTED_AXIOMS,
    audit_weighted_operator,
    check_weighted_axiom,
)
from repro.symbolic import audit_operator_symbolic, check_axiom_symbolic

VOCAB2 = Vocabulary(["a", "b"])
VOCAB3 = Vocabulary(["a", "b", "c"])
R2 = axiom_by_name("R2")

#: The three routes of a Boolean sweep: the in-process dense loop, the
#: process pool and the symbolic loop.  Satoh has a symbolic execution,
#: so every route reaches the check under test.
ROUTES = ({"jobs": 1}, {"jobs": 2}, {"impl": "symbolic"})


class TestDuplicateNames:
    """Results are keyed by name, so a duplicate would drop a row."""

    def test_duplicate_operators_refused_on_every_route(self):
        for route in ROUTES:
            with pytest.raises(ValueError, match="duplicate operator name"):
                compute_matrix(
                    [SatohRevision(), SatohRevision()], VOCAB2, [R2], **route
                )

    def test_duplicate_axioms_refused_on_every_route(self):
        for route in ROUTES:
            with pytest.raises(ValueError, match="duplicate axiom name"):
                compute_matrix([SatohRevision()], VOCAB2, [R2, R2], **route)


class TestJobsBelowOne:
    @pytest.mark.parametrize("jobs", [0, -2])
    def test_every_wrapper_refuses(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            compute_matrix([DalalRevision()], VOCAB2, [R2], jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            check_axiom(DalalRevision(), R2, VOCAB2, jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            check_weighted_axiom(
                WeightedModelFitting(), WEIGHTED_AXIOMS[0], VOCAB2,
                scenarios=10, jobs=jobs,
            )
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            audit_weighted_operator(
                WeightedModelFitting(), VOCAB2, scenarios=10, jobs=jobs
            )

    @pytest.mark.parametrize(
        "argv",
        [
            ("audit", "--jobs", "0"),
            ("audit", "--jobs", "-2"),
            ("audit", "--weighted", "--jobs", "0"),
            ("stats", "--jobs", "0"),
        ],
        ids=["audit-0", "audit-minus-2", "weighted-0", "stats-0"],
    )
    def test_cli_refuses_with_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--scenarios", "10"], out=io.StringIO())
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err


class TestResumeWithoutJournal:
    def test_refused_on_every_route(self):
        for route in ROUTES:
            with pytest.raises(ReproError, match="resume"):
                compute_matrix(
                    [SatohRevision()], VOCAB2, [R2], resume=True, **route
                )

    def test_cli_weighted_resume_refused(self, capsys):
        code = main(
            ["audit", "--weighted", "--resume", "--scenarios", "10"],
            out=io.StringIO(),
        )
        assert code == 2
        assert "--resume" in capsys.readouterr().err


class TestSharedRandom:
    """The serial loop draws a shared generator lazily and stops at each
    cell's first failure, while pool planning draws every cell's whole
    stream up front, so later cells would see other scenarios.  At
    3 atoms, Random(7) gave winslett/A6 4 scenarios serially and 22 in
    the pool."""

    def test_pool_sweeps_refuse_a_shared_random(self):
        operators = [DalalRevision(), WinslettUpdate()]
        generator = random.Random(7)
        with pytest.raises(ReproError, match="integer seed"):
            run_audit(
                operators, ALL_AXIOMS, VOCAB3,
                max_scenarios=300, rng=generator, jobs=2,
            )
        with pytest.raises(ReproError, match="integer seed"):
            compute_matrix([DalalRevision()], VOCAB2, [R2], rng=generator, jobs=2)
        with pytest.raises(ReproError, match="integer seed"):
            check_axiom(DalalRevision(), R2, VOCAB2, rng=generator, jobs=2)
        # Refused before anything was drawn.
        assert generator.getstate() == random.Random(7).getstate()

    def test_weighted_pool_draws_a_shared_random_like_the_serial_loop(self):
        """The weighted serial loop draws each axiom's whole stream up
        front, exactly as planning does, so it keeps accepting one."""
        serial_rng, pooled_rng = random.Random(7), random.Random(7)
        serial = run_weighted_audit(
            WeightedModelFitting(), WEIGHTED_AXIOMS, VOCAB2,
            scenarios=60, rng=serial_rng,
        )
        pooled = run_weighted_audit(
            WeightedModelFitting(), WEIGHTED_AXIOMS, VOCAB2,
            scenarios=60, rng=pooled_rng, jobs=2,
        )
        assert pooled.results == serial.results
        assert pooled_rng.getstate() == serial_rng.getstate()


class TestOneRoute:
    """The wrappers answer exactly what the front door answers, and
    record its run metrics on every route."""

    def test_wrappers_match_run_audit(self):
        axioms = [R2, axiom_by_name("A8")]
        operator = SatohRevision()
        for impl in ("dense", "symbolic"):
            outcome = run_audit(
                [operator], axioms, VOCAB3, max_scenarios=200, rng=3, impl=impl
            )
            row = outcome.results[operator.name]
            assert audit_operator(
                operator, axioms, VOCAB3, max_scenarios=200, rng=3, impl=impl
            ) == row
            assert check_axiom(
                operator, R2, VOCAB3, max_scenarios=200, rng=3, impl=impl
            ) == row["R2"]
        symbolic = run_audit(
            [operator], axioms, VOCAB3, max_scenarios=200, rng=3, impl="symbolic"
        ).results[operator.name]
        assert audit_operator_symbolic(operator, axioms, VOCAB3, 200, 3) == symbolic
        assert check_axiom_symbolic(operator, R2, VOCAB3, 200, 3) == symbolic["R2"]

    def test_symbolic_refusals_live_in_run_audit(self):
        for kwargs in ({"jobs": 2}, {"shm": True}, {"journal_dir": "unused"}):
            with pytest.raises(ReproError, match="serial and in-process"):
                run_audit([SatohRevision()], [R2], VOCAB2, impl="symbolic", **kwargs)
        with pytest.raises(ReproError, match="no symbolic execution"):
            run_audit([WinslettUpdate()], [R2], VOCAB2, impl="symbolic")
        with pytest.raises(ReproError, match="unknown impl"):
            run_audit([SatohRevision()], [R2], VOCAB2, impl="auto")

    @pytest.mark.parametrize("impl", ["dense", "symbolic"])
    def test_serial_sweeps_record_run_metrics(self, impl):
        with obs.use() as registry:
            check_axiom(SatohRevision(), R2, VOCAB2, max_scenarios=50, impl=impl)
            counters = registry.snapshot()["counters"]
        assert counters["engine.audits"] == 1
        assert counters["harness.checks"] == 1
        assert counters.get("harness.symbolic_checks", 0) == (impl == "symbolic")

    def test_serial_weighted_sweeps_record_run_metrics(self):
        with obs.use() as registry:
            check_weighted_axiom(
                WeightedModelFitting(), WEIGHTED_AXIOMS[0], VOCAB2, scenarios=20
            )
            snapshot = registry.snapshot()
        assert snapshot["counters"]["engine.weighted_audits"] == 1
        assert snapshot["counters"]["harness.weighted_checks"] == 1
        assert snapshot["histograms"]["engine.weighted_audit_seconds"]["count"] == 1

    def test_serial_weighted_sweeps_count_the_scenarios_they_check(self):
        """A failing axiom stops the in-process loop early, so the run's
        scenario count, and its scenarios/second, covers only what was
        checked."""
        with obs.use() as registry:
            outcome = run_weighted_audit(
                WeightedArbitration(), WEIGHTED_AXIOMS[:1], VOCAB2, scenarios=400
            )
            counters = registry.snapshot()["counters"]
        assert outcome.results["F1"] is not None
        assert outcome.stats.scenarios == counters["harness.weighted_scenarios"] < 400
