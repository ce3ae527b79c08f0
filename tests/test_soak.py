"""Unit tests for the iterated-change soak harness (``repro.soak``)."""

import io
import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ReproError
from repro.soak import (
    InvariantLedger,
    SoakConfig,
    decode_rng_state,
    draw_step,
    encode_rng_state,
    run_soak,
)

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestSoakConfig:
    def test_round_trips_through_dict(self):
        config = SoakConfig(seed=7, steps=99, atoms=4, chunk_size=32)
        assert SoakConfig(**config.to_dict()) == config

    def test_vocabulary_atoms(self):
        assert list(SoakConfig(atoms=3).vocabulary().atoms) == ["a", "b", "c"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"steps": -1},
            {"atoms": 0},
            {"chunk_size": 0},
            {"commute_every": 0},
            {"roundtrip_every": 0},
            {"trace_window": 1},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ReproError):
            SoakConfig(**kwargs)


class TestStream:
    def test_same_seed_same_stream(self):
        vocabulary = SoakConfig(atoms=4).vocabulary()
        first = random.Random(11)
        second = random.Random(11)
        for index in range(200):
            a = draw_step(index, first, vocabulary, depth=3)
            b = draw_step(index, second, vocabulary, depth=3)
            assert a.kind == b.kind
            assert [str(f) for f in a.formulas] == [str(f) for f in b.formulas]

    def test_merge_steps_have_fan_in(self):
        vocabulary = SoakConfig(atoms=4).vocabulary()
        generator = random.Random(0)
        merges = [
            step
            for step in (
                draw_step(i, generator, vocabulary, depth=3) for i in range(400)
            )
            if step.kind == "merge"
        ]
        assert merges  # the 10% weight must actually fire over 400 draws
        assert all(2 <= len(step.formulas) <= 3 for step in merges)

    def test_rng_state_round_trips(self):
        generator = random.Random(3)
        generator.random()
        state = generator.getstate()
        encoded = json.loads(json.dumps(encode_rng_state(state)))
        assert decode_rng_state(encoded) == state


class TestLedger:
    def test_round_trips_and_digest_is_stable(self):
        ledger = InvariantLedger()
        ledger.record("R1-success")
        ledger.record("R1-success")
        ledger.violate(5, "R2-vacuity", "boom")
        ledger.fixed_point_steps = 3
        ledger.cycle_detections["2"] = 1
        restored = InvariantLedger.from_dict(
            json.loads(json.dumps(ledger.to_dict()))
        )
        assert restored.to_dict() == ledger.to_dict()
        assert restored.digest() == ledger.digest()
        assert restored.total_checks == 2


CONFIG = SoakConfig(
    seed=13, steps=150, atoms=4, chunk_size=32, commute_every=8, roundtrip_every=48
)


class TestRunSoak:
    def test_clean_run_has_no_violations(self):
        report = run_soak(CONFIG)
        assert report.completed
        assert report.ok
        assert report.steps_done == 150
        # Every check family must actually have fired on a 150-step stream.
        for invariant in ("R1-success", "U1-success", "A2-consistency",
                          "serialize-roundtrip"):
            assert report.ledger.checks.get(invariant, 0) > 0, invariant

    def test_deterministic_across_runs(self):
        first = run_soak(CONFIG)
        second = run_soak(CONFIG)
        assert first.state_digest == second.state_digest
        assert first.ledger_digest == second.ledger_digest
        assert first.final_masks == second.final_masks

    def test_resume_matches_uninterrupted(self, tmp_path):
        baseline = run_soak(CONFIG)
        journal_dir = str(tmp_path / "j")
        partial = run_soak(CONFIG, journal_dir=journal_dir, max_chunks=2)
        assert not partial.completed
        resumed = run_soak(CONFIG, journal_dir=journal_dir, resume=True)
        assert resumed.completed
        assert resumed.state_digest == baseline.state_digest
        assert resumed.ledger_digest == baseline.ledger_digest

    def test_resume_without_flag_refused(self, tmp_path):
        journal_dir = str(tmp_path / "j")
        run_soak(CONFIG, journal_dir=journal_dir, max_chunks=1)
        with pytest.raises(ReproError):
            run_soak(CONFIG, journal_dir=journal_dir)

    def test_resume_under_other_config_refused(self, tmp_path):
        journal_dir = str(tmp_path / "j")
        run_soak(CONFIG, journal_dir=journal_dir, max_chunks=1)
        other = SoakConfig(
            seed=14, steps=150, atoms=4, chunk_size=32,
            commute_every=8, roundtrip_every=48,
        )
        with pytest.raises(ReproError):
            run_soak(other, journal_dir=journal_dir, resume=True)

    def test_resume_refuses_a_record_that_does_not_match_its_digest(self, tmp_path):
        # One mask added to the last record's knowledge base keeps the
        # line valid JSON of the right shape; only its digest tells.
        journal_dir = tmp_path / "j"
        run_soak(CONFIG, journal_dir=str(journal_dir), max_chunks=2)
        journal = journal_dir / "journal.jsonl"
        lines = journal.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[-1])
        masks = record["kb"]["masks"]
        record["kb"]["masks"] = sorted(masks + [min(set(range(16)) - set(masks))])
        lines[-1] = json.dumps(record)
        journal.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ReproError, match="state_digest") as refused:
            run_soak(CONFIG, journal_dir=str(journal_dir), resume=True)
        assert str(journal_dir) in str(refused.value)
        assert "record 1" in str(refused.value)

    def test_resume_of_completed_run_is_a_no_op(self, tmp_path):
        journal_dir = str(tmp_path / "j")
        done = run_soak(CONFIG, journal_dir=journal_dir)
        again = run_soak(CONFIG, journal_dir=journal_dir, resume=True)
        assert again.completed
        assert again.state_digest == done.state_digest
        assert again.ledger_digest == done.ledger_digest


class TestKillAndResume:
    def test_sigkill_then_resume_matches_uninterrupted(self, tmp_path):
        """A hard kill mid-stream must lose nothing but the partial chunk."""
        journal_dir = str(tmp_path / "j")
        args = [
            sys.executable, "-m", "repro", "soak",
            "--steps", "600", "--seed", "21", "--atoms-count", "4",
            "--chunk-size", "32", "--journal", journal_dir,
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
                break  # finished before we could kill it — resume still works
            time.sleep(0.02)
        if process.poll() is None:
            process.send_signal(signal.SIGKILL)
        process.wait(timeout=60)

        config = SoakConfig(seed=21, steps=600, atoms=4, chunk_size=32)
        resumed = run_soak(config, journal_dir=journal_dir, resume=True)
        baseline = run_soak(config)
        assert resumed.completed
        assert resumed.state_digest == baseline.state_digest
        assert resumed.ledger_digest == baseline.ledger_digest


class TestSoakCli:
    def test_clean_exit_and_report(self):
        code, text = run_cli(
            "soak", "--steps", "120", "--seed", "4",
            "--atoms-count", "4", "--chunk-size", "32",
        )
        assert code == 0
        assert "state digest:" in text
        assert "no invariant violations" in text

    def test_metrics_out_writes_drift(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        code, _ = run_cli(
            "soak", "--steps", "96", "--seed", "4", "--atoms-count", "4",
            "--chunk-size", "32", "--metrics-out", str(metrics),
        )
        assert code == 0
        payload = json.loads(metrics.read_text())
        assert payload["counters"]["soak.steps"] == 96
        assert payload["soak_drift"]  # one snapshot per chunk boundary
        assert payload["soak_drift"][-1]["step"] == 96

    def test_violation_exits_nonzero(self, monkeypatch):
        import repro.soak as soak_module

        real_run_soak = soak_module.run_soak

        def broken_run_soak(config, **kwargs):
            report = real_run_soak(config, **kwargs)
            report.ledger.violate(0, "R1-success", "synthetic")
            return report

        monkeypatch.setattr(soak_module, "run_soak", broken_run_soak)
        code, text = run_cli(
            "soak", "--steps", "40", "--atoms-count", "3", "--chunk-size", "20"
        )
        assert code == 1
        assert "VIOLATIONS" in text

    def test_journal_and_resume_via_cli(self, tmp_path):
        journal_dir = str(tmp_path / "j")
        code, text = run_cli(
            "soak", "--steps", "120", "--seed", "4", "--atoms-count", "4",
            "--chunk-size", "32", "--journal", journal_dir, "--max-chunks", "2",
        )
        assert code == 0
        assert "INCOMPLETE" in text
        code, text = run_cli(
            "soak", "--steps", "120", "--seed", "4", "--atoms-count", "4",
            "--chunk-size", "32", "--journal", journal_dir, "--resume",
        )
        assert code == 0
        assert "120/120 steps" in text
