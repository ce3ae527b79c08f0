"""The chunk journal (:mod:`repro.engine.journal`), one for audits and soaks.

Every contract test runs once per writer, on that writer's config and on
real records from ``tests/data/journals``: an audit journal and a soak
journal as older builds wrote them (the audit manifest carries a config
digest, the soak manifest does not).  Pinned here:

* the lifecycle: clobber refusal, config drift, torn manifest;
* torn final lines, appends after them, and mid-file corruption;
* records with a missing or mistyped field are refused with a
  :class:`ReproError` naming the file and the line, never a ``KeyError``
  from deep inside a resume;
* truncation at every byte offset reads a prefix of the uncut records,
  and runs resumed from a few cut points match uninterrupted ones.

A bit flip that leaves a line valid JSON of the right shape (a different
chunk ordinal, say) is not caught: that needs a per-record checksum.
"""

from __future__ import annotations

import io
import json
import re
import shutil
from contextlib import redirect_stderr
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.cli import main
from repro.core.fitting import ReveszFitting
from repro.engine.journal import ChunkJournal, check_chunk_record
from repro.engine.pool import run_audit
from repro.errors import ReproError
from repro.logic.interpretation import Vocabulary
from repro.operators.revision import DalalRevision
from repro.postulates.axioms import axiom_by_name
from repro.soak import SoakConfig, run_soak
from repro.soak.harness import check_soak_record

DATA = Path(__file__).resolve().parent / "data" / "journals"

#: The sweep and the stream the journals under ``DATA`` were written for.
VOCAB3 = Vocabulary(["a", "b", "c"])
OPERATORS = [DalalRevision(), ReveszFitting()]
AXIOMS = [axiom_by_name("R1"), axiom_by_name("R2"), axiom_by_name("A8")]
AUDIT = dict(max_scenarios=800, rng=7, chunk_size=64)
SOAK = SoakConfig(
    seed=13, steps=150, atoms=4, chunk_size=32, commute_every=8, roundtrip_every=48
)


@dataclass(frozen=True)
class Writer:
    """One of the journal's writers: its config, a drifted config, real
    records it wrote, and the check its reader applies to them."""

    name: str
    config: dict[str, Any]
    drifted: dict[str, Any]
    records: list[dict[str, Any]]
    check: Callable[[Any], None]


def stored(name: str) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    directory = DATA / name
    manifest = json.loads((directory / "manifest.json").read_text(encoding="utf-8"))
    lines = (directory / "journal.jsonl").read_text(encoding="utf-8").splitlines()
    return manifest["config"], [json.loads(line) for line in lines]


def writers() -> list[Writer]:
    audit_config, audit_records = stored("audit-v1")
    soak_config, soak_records = stored("soak-v1")
    return [
        Writer(
            "audit",
            audit_config,
            {**audit_config, "max_scenarios": 801},
            audit_records,
            check_chunk_record,
        ),
        Writer(
            "soak",
            soak_config,
            {**soak_config, "seed": 14},
            soak_records,
            check_soak_record,
        ),
    ]


AUDIT_JOURNAL, SOAK_JOURNAL = writers()


@pytest.fixture(params=[AUDIT_JOURNAL, SOAK_JOURNAL], ids=lambda writer: writer.name)
def writer(request) -> Writer:
    return request.param


def started(tmp_path: Path, writer: Writer) -> ChunkJournal:
    journal = ChunkJournal(tmp_path / "j")
    journal.initialize(writer.config)
    for record in writer.records:
        journal.append_chunk(record)
    return journal


def write_lines(journal: ChunkJournal, records: list[Any]) -> None:
    journal.journal_path.write_text(
        "".join(json.dumps(record) + "\n" for record in records), encoding="utf-8"
    )


def line_error(journal: ChunkJournal, number: int) -> str:
    return f"line {number} of {re.escape(str(journal.journal_path))}"


def mistyped(value: Any) -> Any:
    return 0 if isinstance(value, str) else "x"


class TestChunkJournal:
    def test_initialize_refuses_to_clobber(self, tmp_path, writer):
        journal = ChunkJournal(tmp_path / "j")
        journal.initialize(writer.config)
        with pytest.raises(ReproError, match="already exists"):
            journal.initialize(writer.config)

    def test_validate_refuses_config_drift(self, tmp_path, writer):
        journal = ChunkJournal(tmp_path / "j")
        journal.initialize(writer.config)
        journal.validate(writer.config)
        with pytest.raises(ReproError, match=re.escape(str(journal.directory))):
            journal.validate(writer.drifted)

    def test_torn_manifest_refused(self, tmp_path, writer):
        journal = ChunkJournal(tmp_path / "j")
        journal.initialize(writer.config)
        text = journal.manifest_path.read_text(encoding="utf-8")
        journal.manifest_path.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(ReproError, match="manifest"):
            journal.validate(writer.config)

    def test_torn_final_line_dropped(self, tmp_path, writer):
        journal = started(tmp_path, writer)
        with open(journal.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"ordinal": 9, "ste')  # killed mid-write
        assert journal.records(writer.check) == writer.records

    def test_append_after_torn_final_line_cuts_it_off(self, tmp_path, writer):
        # a resumed run appends after a kill's torn line: the new records
        # must not glue onto the fragment
        journal = started(tmp_path, writer)
        with open(journal.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"ordinal": 9, "ste')
        journal.append_chunk(writer.records[0])
        assert journal.records(writer.check) == writer.records + writer.records[:1]

    def test_mid_file_corruption_raises(self, tmp_path, writer):
        journal = started(tmp_path, writer)
        journal.journal_path.write_text(
            "not json\n" + json.dumps(writer.records[0]) + "\n", encoding="utf-8"
        )
        with pytest.raises(ReproError, match=line_error(journal, 1)):
            journal.records(writer.check)

    def test_record_missing_a_field_refused(self, tmp_path, writer):
        journal = started(tmp_path, writer)
        for field in writer.records[-1]:
            broken = {k: v for k, v in writer.records[-1].items() if k != field}
            write_lines(journal, [writer.records[0], broken])
            with pytest.raises(ReproError, match=line_error(journal, 2)):
                journal.records(writer.check)

    def test_record_with_a_mistyped_field_refused(self, tmp_path, writer):
        journal = started(tmp_path, writer)
        for field, value in writer.records[-1].items():
            broken = {**writer.records[-1], field: mistyped(value)}
            write_lines(journal, [writer.records[0], broken])
            with pytest.raises(ReproError, match=line_error(journal, 2)):
                journal.records(writer.check)
        write_lines(journal, [writer.records[0], ["not", "an", "object"]])
        with pytest.raises(ReproError, match=line_error(journal, 2)):
            journal.records(writer.check)

    def test_every_cut_reads_a_prefix(self, tmp_path, writer):
        journal = started(tmp_path, writer)
        data = journal.journal_path.read_bytes()
        for cut in range(len(data) + 1):
            journal.journal_path.write_bytes(data[:cut])
            complete = data[:cut].count(b"\n")
            assert journal.records(writer.check) == writer.records[:complete], cut


class TestAuditRecords:
    def test_counterexample_missing_a_field_refused(self):
        record = next(r for r in AUDIT_JOURNAL.records if r["ce"] is not None)
        for field in record["ce"]:
            ce = {k: v for k, v in record["ce"].items() if k != field}
            with pytest.raises(ReproError, match=field):
                check_chunk_record({**record, "ce": ce})

    @pytest.mark.parametrize("bits", ["0xzz", "-0x1", "12", 18, None])
    def test_counterexample_bits_must_be_hex(self, bits):
        record = next(r for r in AUDIT_JOURNAL.records if r["ce"] is not None)
        ce = {**record["ce"], "roles": {**record["ce"]["roles"], "mu": bits}}
        with pytest.raises(ReproError, match="hex"):
            check_chunk_record({**record, "ce": ce})

    def test_resume_refuses_a_record_missing_a_field(self, tmp_path):
        journal_dir = tmp_path / "j"
        shutil.copytree(DATA / "audit-v1", journal_dir)
        journal = ChunkJournal(journal_dir)
        records = journal.records()
        del records[0]["unit"]
        write_lines(journal, records)
        with pytest.raises(ReproError, match=line_error(journal, 1)):
            run_audit(
                OPERATORS, AXIOMS, VOCAB3, jobs=2,
                journal_dir=str(journal_dir), resume=True, **AUDIT,
            )


class TestSoakRecords:
    @pytest.mark.parametrize(
        "rng_state",
        [
            "state",
            [3, [1, 2, 3], None],
            [2, [0] * 624 + [624], None],
            [3, [0] * 624 + [625], None],
            [3, [-1] + [0] * 623 + [624], None],
            [3, ["x"] * 625, None],
            [3, [0] * 624 + [624], "gauss"],
            [3, [0] * 624 + [624]],
        ],
    )
    def test_malformed_rng_state_refused(self, rng_state):
        record = SOAK_JOURNAL.records[-1]
        with pytest.raises(ReproError, match="rng_state"):
            check_soak_record({**record, "rng_state": rng_state})

    def test_ledger_without_its_keys_refused(self):
        record = SOAK_JOURNAL.records[-1]
        for key in record["ledger"]:
            ledger = {k: v for k, v in record["ledger"].items() if k != key}
            with pytest.raises(ReproError, match=key):
                check_soak_record({**record, "ledger": ledger})

    def test_resume_refuses_a_record_missing_a_field(self, tmp_path):
        journal_dir = tmp_path / "j"
        shutil.copytree(DATA / "soak-v1", journal_dir)
        journal = ChunkJournal(journal_dir)
        records = journal.records()
        del records[-1]["rng_state"]
        write_lines(journal, records)
        with pytest.raises(ReproError, match=line_error(journal, len(records))):
            run_soak(SOAK, journal_dir=str(journal_dir), resume=True)
        stderr = io.StringIO()
        with redirect_stderr(stderr):
            code = main(
                [
                    "soak", "--steps", "150", "--seed", "13", "--atoms-count", "4",
                    "--chunk-size", "32", "--commute-every", "8",
                    "--roundtrip-every", "48", "--journal", str(journal_dir),
                    "--resume",
                ],
                out=io.StringIO(),
            )
        assert code == 2
        assert stderr.getvalue().startswith("error: ")


class TestOlderJournalsResume:
    def test_audit_journal_with_a_digest_resumes(self, tmp_path):
        journal_dir = tmp_path / "j"
        shutil.copytree(DATA / "audit-v1", journal_dir)
        assert "digest" in json.loads((journal_dir / "manifest.json").read_text())
        resumed = run_audit(
            OPERATORS, AXIOMS, VOCAB3, jobs=2,
            journal_dir=str(journal_dir), resume=True, **AUDIT,
        )
        baseline = run_audit(OPERATORS, AXIOMS, VOCAB3, jobs=2, **AUDIT)
        assert resumed.results == baseline.results
        assert resumed.stats.chunks_skipped == len(AUDIT_JOURNAL.records)
        with pytest.raises(ReproError, match="max_scenarios"):
            run_audit(
                OPERATORS, AXIOMS, VOCAB3, jobs=2, max_scenarios=801, rng=7,
                chunk_size=64, journal_dir=str(journal_dir), resume=True,
            )

    def test_soak_journal_without_a_digest_resumes(self, tmp_path):
        journal_dir = tmp_path / "j"
        shutil.copytree(DATA / "soak-v1", journal_dir)
        assert "digest" not in json.loads((journal_dir / "manifest.json").read_text())
        resumed = run_soak(SOAK, journal_dir=str(journal_dir), resume=True)
        baseline = run_soak(SOAK)
        assert resumed.completed
        assert resumed.state_digest == baseline.state_digest
        assert resumed.ledger_digest == baseline.ledger_digest
        other = SoakConfig(**{**SOAK.to_dict(), "seed": 14})
        with pytest.raises(ReproError, match="seed"):
            run_soak(other, journal_dir=str(journal_dir), resume=True)


def cut_points(data: bytes) -> list[int]:
    """A cut inside the first line, one at a line boundary, and one just
    short of the end (the last record's newline torn off)."""
    first_newline = data.index(b"\n")
    return [first_newline // 2, first_newline + 1, len(data) - 1]


class TestResumeAfterCut:
    def test_audit_resumes_to_the_uninterrupted_matrix(self, tmp_path):
        baseline = run_audit(OPERATORS, AXIOMS, VOCAB3, jobs=2, **AUDIT)
        full = tmp_path / "full"
        run_audit(OPERATORS, AXIOMS, VOCAB3, jobs=2, journal_dir=str(full), **AUDIT)
        data = ChunkJournal(full).journal_path.read_bytes()
        for cut in cut_points(data):
            journal_dir = tmp_path / f"cut-{cut}"
            shutil.copytree(full, journal_dir)
            ChunkJournal(journal_dir).journal_path.write_bytes(data[:cut])
            resumed = run_audit(
                OPERATORS, AXIOMS, VOCAB3, jobs=2,
                journal_dir=str(journal_dir), resume=True, **AUDIT,
            )
            assert resumed.results == baseline.results, cut
            assert resumed.stats.chunks_skipped == data[:cut].count(b"\n"), cut

    def test_soak_resumes_to_the_uninterrupted_digests(self, tmp_path):
        baseline = run_soak(SOAK)
        full = tmp_path / "full"
        run_soak(SOAK, journal_dir=str(full))
        data = ChunkJournal(full).journal_path.read_bytes()
        for cut in cut_points(data):
            journal_dir = tmp_path / f"cut-{cut}"
            shutil.copytree(full, journal_dir)
            ChunkJournal(journal_dir).journal_path.write_bytes(data[:cut])
            resumed = run_soak(SOAK, journal_dir=str(journal_dir), resume=True)
            assert resumed.completed, cut
            assert resumed.state_digest == baseline.state_digest, cut
            assert resumed.ledger_digest == baseline.ledger_digest, cut
