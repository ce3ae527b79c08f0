"""Unit tests for the command-line interface."""

import io

import pytest

from repro.cli import main


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestModelsCommand:
    def test_enumerates(self):
        code, text = run_cli("models", "a -> b", "--atoms", "a,b")
        assert code == 0
        assert "3 model(s)" in text

    def test_vocabulary_defaults_to_atoms(self):
        code, text = run_cli("models", "x & y")
        assert code == 0
        assert "1 model(s)" in text

    @pytest.mark.parametrize("engine", ["tt", "dpll", "bdd"])
    def test_all_engines(self, engine):
        code, text = run_cli("models", "a | b", "--engine", engine)
        assert code == 0
        assert "3 model(s)" in text


class TestCountCommand:
    def test_counts_without_enumeration(self):
        atoms = ",".join(f"p{i}" for i in range(30))
        code, text = run_cli("count", "p0", "--atoms", atoms)
        assert code == 0
        assert str(1 << 29) in text


class TestChangeCommand:
    @pytest.mark.parametrize(
        "op", ["dalal", "satoh", "borgida", "weber", "winslett", "forbus",
               "odist", "priority"]
    )
    def test_every_operator_runs(self, op):
        code, text = run_cli("change", "--op", op, "a & b", "!a")
        assert code == 0
        assert "model(s)" in text

    def test_intro_example(self):
        code, text = run_cli(
            "change", "--op", "dalal", "A & B & (A & B -> C)", "!C"
        )
        assert code == 0
        assert "A & B & !C" in text


class TestArbitrateCommand:
    def test_unweighted(self):
        code, text = run_cli("arbitrate", "a & b", "!a & !b")
        assert code == 0
        assert "ψ Δ φ" in text

    def test_weighted_majority(self):
        code, text = run_cli("arbitrate", "a & !b", "!a & b", "--weights", "9,2")
        assert code == 0
        assert "{a}" in text

    def test_bad_weights_rejected(self):
        code, _ = run_cli("arbitrate", "a", "b", "--weights", "1,2,3")
        assert code == 2


class TestMergeCommand:
    def test_basic_merge(self):
        code, text = run_cli("merge", "x=a & b", "y=!a")
        assert code == 0
        assert "consensus" in text

    def test_weighted_merge_with_weights(self):
        code, text = run_cli("merge", "many=a:9", "few=!a:2", "--weighted")
        assert code == 0
        assert "sources satisfied" in text

    def test_malformed_source_rejected(self):
        code, _ = run_cli("merge", "just-a-formula")
        assert code == 2


#: Parses (the parser folds chains in a loop) but nests 1,499 levels deep.
XOR_CHAIN = " ^ ".join(["a"] * 1500)


class TestNestingCap:
    """Every one-shot command refuses a formula deeper than the depth cap
    with exit 2, as ``merge`` does, instead of a ``RecursionError``."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("models", XOR_CHAIN),
            ("count", XOR_CHAIN),
            ("change", "--op", "dalal", "a", XOR_CHAIN),
            ("arbitrate", XOR_CHAIN, "a"),
        ],
        ids=["models", "count", "change", "arbitrate"],
    )
    def test_too_deep_formula_is_a_clean_error(self, argv, capsys):
        code, _ = run_cli(*argv)
        assert code == 2
        assert "nested too deeply" in capsys.readouterr().err


class TestAuditCommand:
    def test_matrix_rendered(self):
        code, text = run_cli(
            "audit", "--atoms-count", "2", "--operator", "dalal",
            "--scenarios", "5000",
        )
        assert code == 0
        assert "dalal" in text and "A8" in text

    def test_unknown_operator_rejected(self):
        code, _ = run_cli("audit", "--operator", "nonesuch")
        assert code == 2

    def test_resilience_flags_accepted(self):
        """--chunk-timeout / --max-retries reach the engine, and the
        resilience counters show up in --stats even on a clean run."""
        code, text = run_cli(
            "audit", "--atoms-count", "2", "--operator", "dalal",
            "--scenarios", "400", "--jobs", "2",
            "--chunk-timeout", "30", "--max-retries", "1", "--stats",
        )
        assert code == 0
        assert "engine.retries" in text
        assert "engine.worker_crashes" in text
        assert "engine.chunks_degraded" in text

    def test_weighted_resilience_flags_accepted(self):
        code, text = run_cli(
            "audit", "--weighted", "--atoms-count", "2", "--scenarios", "60",
            "--jobs", "2", "--chunk-timeout", "30", "--stats",
        )
        assert code == 0
        assert "engine.weighted_retries" in text

    def test_weighted_audit_rendered(self):
        code, text = run_cli(
            "audit", "--weighted", "--atoms-count", "2", "--scenarios", "80",
        )
        assert code == 0
        assert "weighted-fitting[wdist]" in text
        assert "F1" in text and "F8" in text
        # Theorem 4.1: the paper's fitting holds all of F1-F8 (sampled).
        fitting_row = next(
            line for line in text.splitlines()
            if line.startswith("weighted-fitting[wdist]")
        )
        assert "\u2717" not in fitting_row  # no X marks

    def test_weighted_audit_with_jobs_and_stats(self):
        code, text = run_cli(
            "audit", "--weighted", "--atoms-count", "2", "--scenarios", "60",
            "--jobs", "2", "--stats",
        )
        assert code == 0
        assert "engine.weighted_audits" in text
        assert "engine.weighted_chunks_completed" in text

    def test_weighted_audit_operator_filter(self):
        code, text = run_cli(
            "audit", "--weighted", "--atoms-count", "2", "--scenarios", "40",
            "--operator", "weighted-fitting[wdist]",
        )
        assert code == 0
        assert "weighted-fitting[wdist]" in text
        assert "weighted-arbitration" not in text

    def test_weighted_audit_unknown_operator_rejected(self):
        code, _ = run_cli("audit", "--weighted", "--operator", "nonesuch")
        assert code == 2

    def test_weighted_audit_metrics_out(self, tmp_path):
        target = tmp_path / "weighted-metrics.json"
        code, _ = run_cli(
            "audit", "--weighted", "--atoms-count", "2", "--scenarios", "40",
            "--metrics-out", str(target),
        )
        assert code == 0
        import json

        payload = json.loads(target.read_text())
        assert "counters" in payload


class TestExperimentsCommand:
    def test_single_experiment(self):
        code, text = run_cli("experiments", "--only", "E3")
        assert code == 0
        assert "E3" in text and "ALL MATCH" in text

    def test_multiple_experiments(self):
        code, text = run_cli("experiments", "--only", "e3", "E4")
        assert code == 0
        assert "E4" in text

    def test_unknown_experiment_rejected(self):
        code, _ = run_cli("experiments", "--only", "E99")
        assert code == 2
