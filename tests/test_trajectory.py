"""Unit tests for the perf-trajectory gate (``repro.bench.trajectory``)."""

import io
import json
from pathlib import Path

import pytest

from repro.bench.trajectory import (
    SNAPSHOT_VERSION,
    WRITERS,
    compare_payloads,
    extract_points,
    regenerate_payload,
    render_report,
    time_paths,
)
from repro.cli import main
from repro.errors import ReproError

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED_SNAPSHOTS = sorted(REPO_ROOT.glob("BENCH_*.json"))


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def envelope(experiment: str, params=None, **series) -> dict:
    return {
        "version": SNAPSHOT_VERSION,
        "experiment": experiment,
        "params": {} if params is None else params,
        **series,
    }


def e9_payload(speedup: float = 40.0, checksum: str = "abc") -> dict:
    return envelope(
        "E9",
        {"atom_counts": [10, 12], "pairs": 3},
        kernel_speedup=[
            {"key": "atoms=10 operator=dalal", "atoms": 10, "operator": "dalal",
             "pairs": 3, "speedup": speedup, "checksum": checksum},
            {"key": "atoms=12 operator=dalal", "atoms": 12, "operator": "dalal",
             "pairs": 3, "speedup": 2 * speedup, "checksum": "def"},
        ],
        operator_sweep=[{"atoms": 10, "operator": "dalal", "seconds": 0.1}],
    )


def e4_payload() -> dict:
    return envelope(
        "E4-weighted",
        fitting_speedup=[
            {"key": "atoms=10 workload=dense", "speedup": 450.0}
        ],
        merge_speedup=[{"key": "atoms=10 workload=dense", "speedup": 300.0}],
    )


class TestExtractPoints:
    def test_e9_ignores_non_speedup_series(self):
        points = extract_points(e9_payload())
        assert {point.series for point in points} == {"kernel_speedup"}
        assert points[0].key == "atoms=10 operator=dalal"
        assert points[0].checksum == "abc"

    def test_e4_combines_both_series(self):
        points = extract_points(e4_payload())
        assert {point.series for point in points} == {
            "fitting_speedup", "merge_speedup"
        }

    def test_e7_rows(self):
        payload = envelope(
            "E7-audit", rows=[{"key": "atoms=2 jobs=4", "atoms": 2, "speedup": 3.8}]
        )
        [point] = extract_points(payload)
        assert point.key == "atoms=2 jobs=4"
        assert point.checksum is None

    def test_shm_combines_warmup_and_audit(self):
        payload = envelope(
            "shm",
            cpu_count=2,
            warmup=[{"key": "atoms=12", "repeats": 3, "speedup": 15.0}],
            audit=[
                {"key": "atoms=12 jobs=4", "jobs": 4, "speedup": 1.3,
                 "checksum": "abc"}
            ],
        )
        points = extract_points(payload)
        assert {point.series for point in points} == {"warmup", "audit"}
        by_series = {point.series: point for point in points}
        assert by_series["warmup"].key == "atoms=12"
        assert by_series["warmup"].checksum is None
        assert by_series["audit"].key == "atoms=12 jobs=4"
        assert by_series["audit"].checksum == "abc"

    def test_serve_rows(self):
        payload = envelope(
            "serve",
            load=[
                {
                    "key": "atoms=4 clients=8",
                    "atoms": 4,
                    "clients": 8,
                    "speedup": 0.21,
                    "checksum": "deadbeef",
                }
            ],
        )
        [point] = extract_points(payload)
        assert point.series == "load"
        assert point.key == "atoms=4 clients=8"
        assert point.checksum == "deadbeef"

    def test_keyless_speedup_row_rejected(self):
        payload = e9_payload()
        del payload["kernel_speedup"][1]["key"]
        with pytest.raises(ReproError, match="no key"):
            extract_points(payload)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ReproError):
            extract_points({"experiment": "E99"})

    def test_unsupported_version_rejected(self):
        payload = e9_payload()
        payload["version"] = SNAPSHOT_VERSION + 1
        with pytest.raises(ReproError, match="version"):
            extract_points(payload)


class TestRegeneratePayload:
    def test_calls_registered_writer_with_baseline_params(self, monkeypatch):
        calls = []

        def recording_writer(path, **params):
            calls.append((path, params))
            return {"recorded": True}

        monkeypatch.setitem(WRITERS, "E9", recording_writer)
        baseline = e9_payload()
        assert regenerate_payload(baseline) == {"recorded": True}
        [(path, params)] = calls
        assert isinstance(path, str)
        assert params == baseline["params"]

    def test_refuses_unregistered_experiment_and_missing_params(
        self, monkeypatch
    ):
        calls = []
        monkeypatch.setitem(
            WRITERS, "E9", lambda path, **params: calls.append(params)
        )
        with pytest.raises(ReproError, match="unknown"):
            regenerate_payload(envelope("E99"))
        missing = e9_payload()
        del missing["params"]
        with pytest.raises(ReproError, match="params"):
            regenerate_payload(missing)
        assert calls == []


class TestTimePaths:
    def test_row_fields(self):
        row = time_paths(
            ("scalar", lambda: 3),
            ("vectorized", lambda: 3),
            checksum=lambda total: total,
            what="toy",
        )
        assert set(row) == {
            "scalar_seconds", "vectorized_seconds", "speedup", "checksum"
        }
        assert row["checksum"] == 3
        assert row["speedup"] > 0

    def test_differing_checksums_refused(self):
        with pytest.raises(ReproError, match="legacy/dense checksum mismatch"):
            time_paths(
                ("legacy", lambda: [1]),
                ("dense", lambda: [2]),
                checksum=str,
                what="toy",
            )


class TestComparePayloads:
    def test_identical_payloads_pass(self):
        report = compare_payloads(e9_payload(), e9_payload())
        assert report.ok
        assert report.compared == 2

    def test_within_tolerance_passes(self):
        report = compare_payloads(e9_payload(40.0), e9_payload(15.0))
        assert report.ok  # 0.375 ratio clears the 0.2 floor

    def test_regression_fails(self):
        report = compare_payloads(e9_payload(40.0), e9_payload(1.0))
        assert not report.ok
        assert {issue.kind for issue in report.issues} == {"regression"}
        assert len(report.issues) == 2

    def test_missing_row_fails(self):
        fresh = e9_payload()
        fresh["kernel_speedup"] = fresh["kernel_speedup"][:1]
        report = compare_payloads(e9_payload(), fresh)
        assert not report.ok
        assert report.issues[0].kind == "missing"

    def test_extra_fresh_rows_are_fine(self):
        fresh = e9_payload()
        fresh["kernel_speedup"].append(
            {"key": "atoms=14 operator=dalal", "atoms": 14, "operator": "dalal",
             "pairs": 3, "speedup": 9.0}
        )
        assert compare_payloads(e9_payload(), fresh).ok

    def test_checksum_mismatch_fails_even_when_fast(self):
        fresh = e9_payload(speedup=400.0, checksum="CHANGED")
        report = compare_payloads(e9_payload(), fresh)
        assert not report.ok
        assert report.issues[0].kind == "checksum-mismatch"

    def test_missing_checksum_on_one_side_is_not_compared(self):
        fresh = e9_payload()
        for row in fresh["kernel_speedup"]:
            row["checksum"] = None
        assert compare_payloads(e9_payload(), fresh).ok

    def test_experiment_mismatch_rejected(self):
        with pytest.raises(ReproError):
            compare_payloads(e9_payload(), e4_payload())

    def test_render_report_mentions_failures(self):
        report = compare_payloads(e9_payload(40.0), e9_payload(1.0))
        text = render_report(report)
        assert "FAIL" in text
        assert "regression" in text


class TestTrajectoryCli:
    def test_matching_payload_exits_zero(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(e9_payload()))
        code, text = run_cli(
            "trajectory", "--baseline", str(baseline), "--fresh", str(baseline)
        )
        assert code == 0
        assert "TRAJECTORY OK" in text

    def test_synthetic_regression_exits_nonzero(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        regressed = tmp_path / "regressed.json"
        baseline.write_text(json.dumps(e9_payload()))
        regressed.write_text(json.dumps(e9_payload(1.0)))
        code, text = run_cli(
            "trajectory", "--baseline", str(baseline), "--fresh", str(regressed)
        )
        assert code == 1
        assert "TRAJECTORY REGRESSED" in text

    def test_fresh_count_must_match_baselines(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(e9_payload()))
        code, _ = run_cli("trajectory", "--baseline", str(baseline))
        assert code == 2
        assert "--fresh" in capsys.readouterr().err


class TestCommittedSnapshots:
    def test_every_registered_experiment_has_a_snapshot(self):
        experiments = [
            json.loads(path.read_text(encoding="utf-8"))["experiment"]
            for path in COMMITTED_SNAPSHOTS
        ]
        assert sorted(experiments) == sorted(WRITERS)

    @pytest.mark.parametrize(
        "snapshot", COMMITTED_SNAPSHOTS, ids=lambda path: path.name
    )
    def test_envelope_and_self_gate(self, snapshot):
        payload = json.loads(snapshot.read_text(encoding="utf-8"))
        assert payload["version"] == SNAPSHOT_VERSION
        assert isinstance(payload["params"], dict)
        assert payload["experiment"] in WRITERS
        speedup_rows = [
            row
            for rows in payload.values()
            if isinstance(rows, list)
            for row in rows
            if isinstance(row, dict) and "speedup" in row
        ]
        assert speedup_rows
        assert all("key" in row for row in speedup_rows)
        code, text = run_cli(
            "trajectory", "--baseline", str(snapshot), "--fresh", str(snapshot)
        )
        assert code == 0
        assert "TRAJECTORY OK" in text
