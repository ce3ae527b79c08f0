"""Postulate-audit workloads: ``compute_matrix`` sweeps in child processes.

``audit-dense``
    Every standard operator against every axiom at 3 atoms,
    ``max_scenarios=1000``, ``jobs=2`` with a chunk journal on a fresh
    directory — what ``repro audit --jobs 2 --journal DIR`` runs.  Each
    sweep runs in a fresh child process, so no cache stays warm between
    sweeps; all use the run's seed and must match the ``jobs=1`` serial
    matrix, computed once per run and not timed.  One untimed sweep
    warms the file system first.
``audit-symbolic``
    dalal, satoh, weber and revesz-odist at 17 atoms, one past the
    dense engine's 16, ``max_scenarios=10``, ``impl="symbolic"``: the BDD
    ``Min`` level walk past the dense ``2^|T|`` wall.  Forbus is left
    out: its per-model sphere unions made sweep times vary over 10x
    between seeds, which would drown the level walk.  Four children
    share the run; each sweep starts from an empty BDD manager registry
    on a fresh vocabulary and its own derived seed, which spreads a run
    over hundreds of random formulas.  Every child's first sweep is the
    same anchor input, whose digest must agree across children; it is
    the child's untimed warm-up.  Dense/symbolic parity at 8 atoms is
    checked once per run, untimed.

``peak_rss_mb`` is the median over a run's children of each child's
peak resident set, its pool workers included.  Sweep and set-up times
are calibrated to the reference speed (``speed.py``): audit-dense
children and their pool workers run on two CPUs and probe both,
audit-symbolic children run on one.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from common import (
    layer_table,
    median,
    ratio,
    read_json_line,
    reap,
    share_pct,
    spans_from_records,
    spawn_python,
)
import speed
from repro.bench.audit_speedup import matrix_checksum
from repro.bench.experiments import standard_operators
from repro.logic.interpretation import Vocabulary
from repro.postulates.axioms import ALL_AXIOMS
from repro.postulates.matrix import compute_matrix

CHILD = str(Path(__file__).resolve().with_name("audit_child.py"))
#: Every run measures at least this many sweeps, however long they take.
MIN_SWEEPS = 3
#: Vocabulary size of the dense/symbolic parity check.
PARITY_ATOMS = 8


@dataclass(frozen=True)
class AuditWorkload:
    name: str
    impl: str
    atoms: int
    operators: tuple[str, ...]
    max_scenarios: int
    jobs: int
    #: Child processes per run: 0 starts a fresh child for every sweep.
    children: int
    #: A sweep slower than this (s) does not count towards goodput.
    slo_s: float


AUDIT_DENSE = AuditWorkload(
    "audit-dense", "dense", atoms=3,
    operators=tuple(op.name for op in standard_operators()),
    max_scenarios=1000, jobs=2, children=0, slo_s=10.0,
)
AUDIT_SYMBOLIC = AuditWorkload(
    "audit-symbolic", "symbolic", atoms=17,
    operators=("dalal", "satoh", "weber", "revesz-odist"),
    max_scenarios=10, jobs=1, children=4, slo_s=5.0,
)


def _seed(seed: int, *parts: int) -> int:
    """A derived seed, stable across processes and Python versions."""
    value = seed
    for part in parts:
        value = (value * 1_000_003 + part) % (1 << 31)
    return value


@dataclass
class Child:
    setup_s: float
    sweeps: list[dict]
    peak_rss_mb: float


def child_cpus(workload: AuditWorkload) -> list[int]:
    """The CPUs a child and its pool workers run on: one per job."""
    available = speed.cpus()
    return available[:workload.jobs] if workload.jobs > 1 else available[-1:]


def run_child(workload: AuditWorkload, work_dir: Path, sweeps: list[dict], deadline: float,
              traced: bool = False) -> Child:
    """One child's sweeps; ``setup_s`` and each sweep's ``seconds`` are
    calibrated (``speed.py``), the raw sweep time stays in ``raw_s``."""
    cpus = child_cpus(workload)
    config = {
        "impl": workload.impl,
        "operators": list(workload.operators),
        "atoms": workload.atoms,
        "max_scenarios": workload.max_scenarios,
        "jobs": workload.jobs,
        "journal_dir": str(work_dir / "journal") if workload.impl == "dense" else None,
        "sweeps": sweeps,
        "deadline": deadline,
        "traced": traced,
        "cpus": cpus,
    }
    work_dir.mkdir(parents=True, exist_ok=True)
    before = speed.probe(cpus)
    started = time.perf_counter()
    proc = spawn_python([CHILD, json.dumps(config)], work_dir, cpus)
    try:
        ready = read_json_line(proc.stdout)
        if not ready:
            raise RuntimeError(f"{workload.name}: audit child failed to start")
        setup_s = speed.calibrate(ready["at"] - started, before, ready["probe_s"])
        reports = []
        while (report := read_json_line(proc.stdout)) is not None:
            report["raw_s"] = report["seconds"]
            report["seconds"] = speed.calibrate(report["seconds"], *report["probe_s"])
            reports.append(report)
    finally:
        peak = reap(proc)
    if proc.returncode != 0 or not reports:
        raise RuntimeError(f"{workload.name}: audit child exited with {proc.returncode}")
    return Child(setup_s, reports, peak)


def serial_checksum(workload: AuditWorkload, seed: int, atoms: int) -> str:
    """The ``jobs=1`` dense matrix checksum: the oracle the sweeps must match."""
    vocabulary = Vocabulary([f"p{i}" for i in range(atoms)])
    operators = [op for op in standard_operators() if op.name in workload.operators]
    matrix = compute_matrix(operators, vocabulary, ALL_AXIOMS,
                            max_scenarios=workload.max_scenarios, rng=seed, jobs=1)
    return matrix_checksum(matrix)


def _sweep_plan(workload: AuditWorkload, seed: int, child: int, count: int) -> list[dict]:
    if workload.impl == "dense":
        return [{"seed": seed, "prefix": "p"}] * count
    anchor = {"seed": _seed(seed, 0, 0), "prefix": f"c{child}a"}
    return [anchor] + [
        {"seed": _seed(seed, child + 1, index), "prefix": f"c{child}s{index}_"}
        for index in range(1, count)
    ]


def measure(workload: AuditWorkload, seed: int, seconds: float, work_dir: Path) -> list[Child]:
    """Run sweeps for ``seconds`` (and at least ``MIN_SWEEPS``).  With a
    fresh child per sweep, one untimed sweep warms the file system first."""
    children: list[Child] = []
    if workload.children == 0:
        run_child(workload, work_dir / "warm-up", _sweep_plan(workload, seed, 0, 1), 0.0)
        start = time.perf_counter()
        while len(children) < MIN_SWEEPS or time.perf_counter() - start < seconds:
            index = len(children)
            children.append(run_child(workload, work_dir / f"child-{index}",
                                      _sweep_plan(workload, seed, index, 1), 0.0))
        return children
    start = time.perf_counter()
    for index in range(workload.children):
        deadline = start + seconds * (index + 1) / workload.children
        # Far more sweeps than fit before the deadline; the child stops there.
        plan = _sweep_plan(workload, seed, index, 200)
        children.append(run_child(workload, work_dir / f"child-{index}", plan, deadline))
    return children


def mismatches(workload: AuditWorkload, seed: int, children: list[Child]) -> int:
    """How many checks against the workload's oracle failed."""
    if workload.impl == "dense":
        expected = serial_checksum(workload, seed, workload.atoms)
        return sum(1 for child in children for sweep in child.sweeps
                   if sweep["checksum"] != expected)
    parity = Vocabulary([f"p{i}" for i in range(PARITY_ATOMS)])
    operators = [op for op in standard_operators() if op.name in workload.operators]
    symbolic = compute_matrix(operators, parity, ALL_AXIOMS, max_scenarios=workload.max_scenarios,
                              rng=seed, impl="symbolic")
    failed = int(matrix_checksum(symbolic) != serial_checksum(workload, seed, PARITY_ATOMS))
    anchors = {child.sweeps[0]["digest"] for child in children}
    return failed + len(anchors) - 1


def run_untraced(workload: AuditWorkload, seed: int, seconds: float, work_dir: Path) -> dict:
    children = measure(workload, seed, seconds, work_dir)
    wrong = mismatches(workload, seed, children)
    # A symbolic child's first sweep is the anchor: an oracle input shared
    # by every child, and the child's warm-up.  It is not timed.
    skip = 0 if workload.impl == "dense" else 1
    sweeps = [sweep for child in children for sweep in child.sweeps[skip:]]
    times = [sweep["seconds"] for sweep in sweeps]
    return {
        "metrics": {
            "p50_ms": median(times) * 1e3,
            "ops_s": sum(sweep["scenarios"] for sweep in sweeps) / sum(times),
            "goodput": sum(1 for t in times if t <= workload.slo_s) / len(times),
            "setup_s": median([child.setup_s for child in children]),
            "peak_rss_mb": median([child.peak_rss_mb for child in children]),
        },
        "attempted": sum(len(child.sweeps) for child in children),
        "failed": 0,
        "correct": wrong == 0,
        "info": {"mismatches": wrong, "sweep_s": times,
                 "raw_sweep_s": [sweep["raw_s"] for sweep in sweeps]},
    }


def run_traced(workload: AuditWorkload, seed: int, seconds: float, work_dir: Path) -> dict:
    """The same sweeps twice in fresh children, untraced then traced; the
    per-layer metrics come from the traced child's spans and stats."""
    count = 1 if workload.impl == "dense" else 6
    plan = _sweep_plan(workload, seed, 0, count)
    forever = time.perf_counter() + 3600.0
    if workload.children == 0:
        run_child(workload, work_dir / "warm-up", plan, forever)
    plain = run_child(workload, work_dir / "plain", plan, forever)
    traced = run_child(workload, work_dir / "traced", plan, forever, traced=True)
    expected = {sweep["seed"]: sweep["digest"] for sweep in plain.sweeps}
    wrong = mismatches(workload, seed, [plain]) + sum(
        1 for sweep in traced.sweeps if sweep["digest"] != expected[sweep["seed"]]
    )
    spans = []
    for sweep in traced.sweeps:
        spans += spans_from_records(sweep["spans"], f"audit child, sweep {sweep['sweep']}")
    # Spans are raw times, so their shares are of the raw sweep time.
    total = sum(sweep["raw_s"] for sweep in traced.sweeps)

    def pct(name: str, **match) -> float:
        return share_pct(sum(span["dur"] for span in spans if span["name"] == name and all(
            span["args"].get(key) == value for key, value in match.items())), total)

    metrics = {
        "bench.tracing_overhead": sum(sweep["seconds"] for sweep in traced.sweeps)
        / sum(sweep["seconds"] for sweep in plain.sweeps),
    }
    if workload.impl == "symbolic":
        for name in workload.operators:
            metrics[f"symbolic.operator_pct.{name}"] = pct("symbolic.operator", operator=name)
        metrics["bdd.nodes"] = median([sweep["bdd_nodes"] for sweep in traced.sweeps])
    else:
        stats = traced.sweeps[0]["stats"]
        elapsed, busy = stats["elapsed_seconds"], stats["chunk_seconds"]
        metrics.update({
            "engine.plan_pct": pct("engine.plan"),
            "engine.chunks": stats["chunks"],
            "engine.scenarios": stats["scenarios"],
            "engine.parallel_efficiency": busy / (elapsed * workload.jobs),
            "engine.overhead_pct": share_pct(elapsed - busy / workload.jobs, elapsed),
            "engine.key_hit_ratio": ratio(stats["key_hits"], stats["key_misses"]),
            "engine.result_hit_ratio": ratio(stats["result_hits"], stats["result_misses"]),
            "engine.shm_mib": stats["shm_bytes"] / (1 << 20),
            "journal.append_pct": pct("journal.append"),
            "engine.retries": stats["retries"],
            "engine.chunks_degraded": stats["chunks_degraded"],
        })
    return {
        "metrics": metrics,
        "attempted": len(plain.sweeps) + len(traced.sweeps),
        "failed": 0,
        "correct": wrong == 0,
        "spans": spans,
        "layers": layer_table(spans),
    }
