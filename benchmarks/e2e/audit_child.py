"""One audit process: ``python benchmarks/e2e/audit_child.py '<json config>'``.

Does what ``repro audit`` does — imports, builds the operator roster,
calls ``compute_matrix`` — and reports on stdout, one JSON object per
line: ``{"ready": true, ...}`` once set up, with the ``perf_counter``
time set-up ended, then one object per sweep with its wall time and the
digests the parent checks.  Between sweeps, while nothing else runs, it
times the reference loop of ``speed.py`` on its CPUs; every report
carries the probes around its work.  ``auditing.py`` starts these
children; running one by hand needs ``src`` on ``PYTHONPATH``.

Config keys: ``impl``, ``operators``, ``atoms``, ``max_scenarios``,
``jobs``, ``journal_dir`` (or null), ``sweeps`` (a list of
``{"seed", "prefix"}``: each sweep audits a fresh vocabulary named
``<prefix>0..``, so no per-vocabulary cache is warm), ``deadline`` (a
``time.perf_counter`` value after which no further sweep starts),
``traced`` and ``cpus`` (the CPUs to probe).
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

import speed
from repro import obs
from repro.bench.audit_speedup import matrix_checksum
from repro.bench.experiments import standard_operators
from repro.engine.chunks import DEFAULT_CHUNK_SIZE, plan_scenarios
from repro.engine.journal import ChunkJournal
from repro.engine.pool import run_audit
from repro.logic.bdd import clear_managers, manager_for
from repro.logic.interpretation import Vocabulary
from repro.postulates.axioms import ALL_AXIOMS
from repro.postulates.matrix import SatisfactionMatrix, compute_matrix
from repro.symbolic import audit_operator_symbolic, ensure_symbolic_roster


def _size(value) -> int:
    """Model count of a dense ``ModelSet`` or a ``SymbolicModelSet``."""
    return value.count() if hasattr(value, "count") else len(value)


def verdict_digest(matrix: SatisfactionMatrix) -> str:
    """SHA-256 of verdicts, scenario counts and counterexample model counts.

    Unlike ``matrix_checksum`` it needs no dense bit-vectors, so it
    covers symbolic sweeps at any vocabulary size, and it does not
    depend on atom names.
    """
    cells = {}
    for operator, row in matrix.results.items():
        for axiom, result in row.items():
            cell = [result.holds, result.scenarios_checked]
            if result.counterexample is not None:
                cell.append(sorted((role, _size(value))
                                   for role, value in result.counterexample.roles.items()))
                cell.append(sorted((label, _size(value))
                                   for label, value in result.counterexample.observed.items()))
            cells[f"{operator}/{axiom}"] = cell
    canonical = json.dumps(cells, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _matrix(operators, vocabulary, results) -> SatisfactionMatrix:
    return SatisfactionMatrix(
        operators=tuple(op.name for op in operators),
        axioms=tuple(axiom.name for axiom in ALL_AXIOMS),
        results=results,
        vocabulary_size=vocabulary.size,
    )


def traced_dense(config, operators, vocabulary, seed, journal_dir) -> tuple[SatisfactionMatrix, dict]:
    """``compute_matrix``'s jobs>1 path called directly for its engine
    stats, then the planning and journal appends replayed under spans."""
    with obs.span("bench.sweep", seed=seed):
        outcome = run_audit(
            operators, ALL_AXIOMS, vocabulary, max_scenarios=config["max_scenarios"],
            rng=seed, jobs=config["jobs"], journal_dir=journal_dir,
        )
    for operator in operators:
        for axiom in ALL_AXIOMS:
            with obs.span("engine.plan", operator=operator.name, axiom=axiom.name):
                plan_scenarios(vocabulary, len(axiom.roles), config["max_scenarios"],
                               random.Random(seed), DEFAULT_CHUNK_SIZE)
    replica = ChunkJournal(Path(journal_dir).with_name(Path(journal_dir).name + "-replay"))
    replica.directory.mkdir(parents=True)
    for record in ChunkJournal(journal_dir).records():
        with obs.span("journal.append"):
            replica.append_chunk(record)
    return _matrix(operators, vocabulary, outcome.results), {"stats": vars(outcome.stats)}


def traced_symbolic(config, operators, vocabulary, seed) -> tuple[SatisfactionMatrix, dict]:
    """``compute_matrix(impl="symbolic")`` unrolled: one span per operator."""
    ensure_symbolic_roster(operators)
    results = {}
    with obs.span("bench.sweep", seed=seed):
        for operator in operators:
            with obs.span("symbolic.operator", operator=operator.name):
                results[operator.name] = audit_operator_symbolic(
                    operator, ALL_AXIOMS, vocabulary, config["max_scenarios"], seed
                )
    return _matrix(operators, vocabulary, results), {
        "bdd_nodes": manager_for(vocabulary).node_count
    }


def main() -> None:
    config = json.loads(sys.argv[1])
    wanted = set(config["operators"])
    operators = [op for op in standard_operators() if op.name in wanted]
    ready_at = time.perf_counter()
    before = speed.probe(config["cpus"])
    print(json.dumps({"ready": True, "at": ready_at, "probe_s": before}), flush=True)
    symbolic = config["impl"] == "symbolic"
    for index, sweep in enumerate(config["sweeps"]):
        # At least two sweeps: a symbolic child's first one is not timed.
        if index >= 2 and time.perf_counter() >= config["deadline"]:
            break
        # An empty manager registry and a vocabulary no earlier sweep used:
        # each sweep starts as cold as a fresh ``repro audit`` process.
        clear_managers()
        vocabulary = Vocabulary([f"{sweep['prefix']}{i}" for i in range(config["atoms"])])
        journal_dir = config["journal_dir"] and f"{config['journal_dir']}-{index}"
        extra: dict = {}
        if not config["traced"]:
            started = time.perf_counter()
            matrix = compute_matrix(
                operators, vocabulary, ALL_AXIOMS, max_scenarios=config["max_scenarios"],
                rng=sweep["seed"], jobs=config["jobs"], journal_dir=journal_dir,
                impl=config["impl"],
            )
            seconds = time.perf_counter() - started
        else:
            with obs.use(span_capacity=1 << 16):
                if symbolic:
                    matrix, extra = traced_symbolic(config, operators, vocabulary, sweep["seed"])
                else:
                    matrix, extra = traced_dense(config, operators, vocabulary,
                                                 sweep["seed"], journal_dir)
                extra["spans"] = obs.active_recorder().export()
            seconds = next(span["duration"] for span in extra["spans"]
                           if span["name"] == "bench.sweep")
        after = speed.probe(config["cpus"])
        print(json.dumps({
            "sweep": index,
            "seed": sweep["seed"],
            "seconds": seconds,
            "probe_s": [before, after],
            "scenarios": sum(result.scenarios_checked
                             for row in matrix.results.values() for result in row.values()),
            "digest": verdict_digest(matrix),
            "checksum": None if symbolic and config["atoms"] > 16 else matrix_checksum(matrix),
            **extra,
        }), flush=True)
        before = after
    # The shared-memory arena starts multiprocessing's resource tracker;
    # stop and reap it so that no process started here outlives this one.
    resource_tracker._resource_tracker._stop()


if __name__ == "__main__":
    main()
