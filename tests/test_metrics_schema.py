"""Validation of the observability JSON contract against the checked-in
schema (``tests/data/metrics.schema.json``), plus the CLI acceptance path:
``repro audit --jobs 2 --stats --metrics-out`` must emit a schema-valid
payload carrying kernel build timers, cache hit/miss counts, and per-chunk
durations merged back from the pool workers.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro import obs
from repro.cli import main
from repro.engine.pool import run_audit
from repro.logic.interpretation import Vocabulary
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import SpanRecorder, span
from repro.operators.revision import DalalRevision
from repro.postulates.axioms import axiom_by_name

jsonschema = pytest.importorskip("jsonschema")

SCHEMA_PATH = Path(__file__).parent / "data" / "metrics.schema.json"
SCHEMA = json.loads(SCHEMA_PATH.read_text())


def validate(payload: dict) -> None:
    jsonschema.validate(payload, SCHEMA)


class TestSchema:
    def test_schema_itself_is_valid_draft7(self):
        jsonschema.Draft7Validator.check_schema(SCHEMA)

    def test_empty_payload_validates(self):
        validate(obs.metrics_payload())

    def test_synthetic_payload_validates(self):
        registry = MetricsRegistry()
        registry.counter("engine.audits").inc()
        registry.gauge("engine.scenarios_per_second").set(123.4)
        with registry.timer("engine.audit_seconds"):
            pass
        recorder = SpanRecorder()
        payload = obs.metrics_payload(registry, recorder)
        validate(payload)

    def test_operator_segment_names_validate(self):
        # Real published names include parentheses and dashes:
        # cache.assignment.odist(max).hits, cache.assignment.priority-lex.misses.
        registry = MetricsRegistry()
        registry.counter("cache.assignment.odist(max).hits").inc()
        registry.counter("cache.assignment.priority-lex.misses").inc()
        validate(obs.metrics_payload(registry, SpanRecorder()))

    def test_malformed_payloads_rejected(self):
        bad_version = obs.metrics_payload()
        bad_version["version"] = 2
        with pytest.raises(jsonschema.ValidationError):
            validate(bad_version)
        bad_counter = obs.metrics_payload()
        bad_counter["counters"] = {"engine.audits": -1}
        with pytest.raises(jsonschema.ValidationError):
            validate(bad_counter)
        bad_histogram = obs.metrics_payload()
        bad_histogram["histograms"] = {"engine.audit_seconds": {"count": 1}}
        with pytest.raises(jsonschema.ValidationError):
            validate(bad_histogram)

    def test_live_audit_payload_validates(self):
        with obs.use() as registry:
            with span("test.root", case="schema"):
                run_audit(
                    [DalalRevision()],
                    [axiom_by_name("R2")],
                    Vocabulary(["a", "b"]),
                    max_scenarios=400,
                    jobs=2,
                )
            payload = obs.metrics_payload(registry)
        validate(payload)
        assert payload["spans"], "expected at least the test.root span"


class TestCliAcceptance:
    def test_audit_stats_metrics_out(self, tmp_path):
        """The ISSUE's acceptance criterion, end to end through the CLI."""
        metrics_file = tmp_path / "m.json"
        out = io.StringIO()
        code = main(
            [
                "audit",
                "--atoms-count",
                "2",
                "--scenarios",
                "400",
                "--jobs",
                "2",
                "--stats",
                "--metrics-out",
                str(metrics_file),
            ],
            out=out,
        )
        assert code == 0
        assert not obs.enabled(), "CLI leaked an enabled obs session"
        text = out.getvalue()
        assert "counters:" in text and "histograms" in text

        payload = json.loads(metrics_file.read_text())
        validate(payload)
        # Kernel build timers, merged from the pool workers.
        assert payload["counters"]["kernels.matrix_builds"] > 0
        assert payload["histograms"]["kernels.matrix_seconds"]["count"] > 0
        # Cache hit/miss counts.
        assert payload["counters"]["cache.engine.keys.hits"] > 0
        assert payload["counters"]["cache.engine.keys.misses"] > 0
        # Per-chunk durations merged from workers.
        assert payload["histograms"]["engine.chunk_seconds"]["count"] > 0
        assert payload["counters"]["engine.chunks_completed"] > 0

    def test_stats_command_json_validates(self):
        out = io.StringIO()
        code = main(["stats", "--scenarios", "200", "--json"], out=out)
        assert code == 0
        payload = json.loads(out.getvalue())
        validate(payload)
        assert payload["counters"]["harness.checks"] > 0


class TestServeMetrics:
    def test_live_serve_payload_validates(self):
        """A real serve workload's metrics payload obeys the schema."""
        import asyncio

        from repro.serve import ArbitrationServer, ServeClient, ServeConfig

        async def drive():
            server = ArbitrationServer(ServeConfig(port=0))
            await server.start()
            client = ServeClient(server.host, server.port)
            try:
                await client.request(
                    "POST", "/v1/sessions", {"id": "s", "atoms": ["a", "b"]}
                )
                await client.request(
                    "POST",
                    "/v1/sessions/s/query",
                    {"op": "revise", "formula": "a & !b"},
                )
                status, payload = await client.request("GET", "/metrics")
            finally:
                await client.close()
                await server.stop()
            return status, payload

        with obs.use() as registry:
            status, over_http = asyncio.run(drive())
            final = obs.metrics_payload(registry)
        assert status == 200
        validate(final)
        names = set(final["counters"])
        assert {
            "serve.requests",
            "serve.queries",
            "serve.batches",
            "serve.sessions_created",
        } <= names
        assert "serve.queue_depth" in final["gauges"]
        assert {
            "serve.request_seconds",
            "serve.queue_wait_seconds",
        } <= set(final["histograms"])
        # the /metrics endpoint serves the same (schema-valid) shape
        validate(over_http)
