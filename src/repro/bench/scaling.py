"""Scaling workloads for experiments E9 (operator complexity) and E10
(engine/aggregator ablations).

Section 5 leaves the comparative complexity of revision, update, and
arbitration as an open problem; E9 measures it empirically on seeded
random workloads.  Workload construction is separated from execution so
pytest-benchmark can time the execution alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence

from repro import obs
from repro.bench.trajectory import save_snapshot, time_paths
from repro.core.arbitration import ArbitrationOperator
from repro.core.fitting import PriorityFitting, ReveszFitting
from repro.distances import kernels
from repro.logic.bdd import BddEngine
from repro.logic.enumeration import DpllEngine, TruthTableEngine
from repro.logic.interpretation import Vocabulary
from repro.logic.random_formulas import (
    random_kcnf,
    random_model_set,
    random_vocabulary,
)
from repro.logic.semantics import ModelSet
from repro.operators.base import TheoryChangeOperator
from repro.operators.revision import DalalRevision, SatohRevision
from repro.operators.update import ForbusUpdate, WinslettUpdate

__all__ = [
    "ScalingWorkload",
    "make_model_set_workload",
    "make_formula_workload",
    "scaling_operators",
    "run_workload",
    "measure_operator_sweep",
    "measure_engine_crossover",
    "measure_kernel_speedup",
    "write_scaling_snapshot",
]


@dataclass(frozen=True)
class ScalingWorkload:
    """A batch of (ψ, μ) model-set pairs over one vocabulary."""

    vocabulary: Vocabulary
    pairs: tuple[tuple[ModelSet, ModelSet], ...]

    @property
    def description(self) -> str:
        """Summary used in benchmark names and reports."""
        sizes = [len(psi) for psi, _ in self.pairs]
        return (
            f"|𝒯|={self.vocabulary.size}, {len(self.pairs)} pairs, "
            f"|Mod(ψ)|≈{sum(sizes) // max(1, len(sizes))}"
        )


def make_model_set_workload(
    num_atoms: int,
    kb_models: int,
    input_models: int,
    pairs: int,
    seed: int = 0,
) -> ScalingWorkload:
    """Seeded random model-set pairs of fixed sizes."""
    vocabulary = random_vocabulary(num_atoms)
    workload = []
    for index in range(pairs):
        psi = random_model_set(vocabulary, kb_models, seed * 1009 + 2 * index)
        mu = random_model_set(vocabulary, input_models, seed * 1009 + 2 * index + 1)
        workload.append((psi, mu))
    return ScalingWorkload(vocabulary, tuple(workload))


def make_formula_workload(
    num_atoms: int,
    num_clauses: int,
    clause_size: int,
    pairs: int,
    seed: int = 0,
):
    """Seeded random k-CNF formula pairs (for end-to-end formula-level
    benchmarks including enumeration cost)."""
    vocabulary = random_vocabulary(num_atoms)
    formulas = []
    for index in range(pairs):
        psi = random_kcnf(vocabulary, num_clauses, clause_size, seed * 7919 + 2 * index)
        mu = random_kcnf(
            vocabulary, num_clauses, clause_size, seed * 7919 + 2 * index + 1
        )
        formulas.append((psi, mu))
    return vocabulary, tuple(formulas)


def scaling_operators() -> list[TheoryChangeOperator]:
    """The operators compared in the E9 sweep."""
    return [
        DalalRevision(),
        SatohRevision(),
        WinslettUpdate(),
        ForbusUpdate(),
        ReveszFitting(),
        PriorityFitting(),
        ArbitrationOperator(),
    ]


def run_workload(
    operator: TheoryChangeOperator, workload: ScalingWorkload
) -> int:
    """Apply the operator to every pair; returns total result models
    (a checksum that keeps the work observable)."""
    total = 0
    for psi, mu in workload.pairs:
        total += len(operator.apply_models(psi, mu))
    return total


def measure_operator_sweep(
    atom_counts: Sequence[int] = (4, 6, 8, 10),
    kb_density: float = 0.25,
    pairs: int = 5,
    seed: int = 0,
) -> list[dict]:
    """E9 rows: wall time per operator per vocabulary size.

    Model-set sizes scale with the interpretation space (``kb_density``),
    so the sweep exposes each operator's dependence on |Mod(ψ)|·|Mod(μ)|.
    """
    rows = []
    for num_atoms in atom_counts:
        space = 1 << num_atoms
        kb_models = max(1, int(space * kb_density))
        workload = make_model_set_workload(
            num_atoms, kb_models, kb_models, pairs, seed
        )
        for operator in scaling_operators():
            start = time.perf_counter()
            checksum = run_workload(operator, workload)
            elapsed = time.perf_counter() - start
            rows.append(
                {
                    "atoms": num_atoms,
                    "kb_models": kb_models,
                    "operator": operator.name,
                    "seconds": elapsed,
                    "seconds_per_pair": elapsed / pairs,
                    "checksum": checksum,
                }
            )
    return rows


def measure_kernel_speedup(
    atom_counts: Sequence[int] = (10, 12, 14),
    kb_density: float = 0.25,
    pairs: int = 3,
    seed: int = 0,
) -> list[dict]:
    """E9 headline rows: scalar-vs-vectorized wall time per vocabulary size.

    For each |𝒯|, runs the same seeded workload through the pre-refactor
    path (``vectorized=False``: eager whole-universe scalar ranking) and
    the kernel path (lazy pre-order + numpy batch kernels), asserting the
    checksums agree, and reports the speedup plus the vectorized
    operators' :meth:`cache_info` counters.
    """
    rows = []
    for num_atoms in atom_counts:
        space = 1 << num_atoms
        kb_models = max(1, int(space * kb_density))
        workload = make_model_set_workload(
            num_atoms, kb_models, kb_models, pairs, seed
        )
        for factory, name in (
            (ReveszFitting, "revesz-odist"),
            (DalalRevision, "dalal"),
        ):
            scalar_operator = factory(vectorized=False)
            vector_operator = factory(vectorized=True)
            timing = time_paths(
                ("scalar", lambda: run_workload(scalar_operator, workload)),
                ("vectorized", lambda: run_workload(vector_operator, workload)),
                checksum=lambda total: total,
                what=f"{name} at |𝒯|={num_atoms}",
            )
            rows.append(
                {
                    "key": f"atoms={num_atoms} operator={name}",
                    "atoms": num_atoms,
                    "kb_models": kb_models,
                    "pairs": pairs,
                    "operator": name,
                    **timing,
                    "cache_info": vector_operator.cache_info()._asdict(),
                }
            )
    return rows


def write_scaling_snapshot(
    path: str = "BENCH_e9.json",
    atom_counts: Sequence[int] = (10, 12, 14),
    kb_density: float = 0.25,
    pairs: int = 3,
    seed: int = 0,
    sweep_atom_counts: Optional[Sequence[int]] = (4, 6, 8, 10),
    metrics_path: Optional[str] = None,
) -> dict:
    """Emit the E9 perf snapshot consumed by future PRs to track the
    trajectory: kernel speedup rows plus (optionally) the operator sweep.

    ``metrics_path`` additionally writes an observability payload
    (``repro.obs`` metrics JSON) from one instrumented replay of the
    smallest kernel workload *after* the timed rows, so the timings
    themselves stay uninstrumented.
    """
    series = {
        "numpy": kernels.HAS_NUMPY,
        "kernel_speedup": measure_kernel_speedup(
            atom_counts, kb_density, pairs, seed
        ),
    }
    if sweep_atom_counts is not None:
        series["operator_sweep"] = measure_operator_sweep(
            sweep_atom_counts, kb_density, max(2, pairs), seed
        )
    payload = save_snapshot(
        path,
        "E9",
        {
            "atom_counts": atom_counts,
            "kb_density": kb_density,
            "pairs": pairs,
            "seed": seed,
            "sweep_atom_counts": sweep_atom_counts,
        },
        **series,
    )
    if metrics_path is not None:
        num_atoms = min(atom_counts)
        space = 1 << num_atoms
        kb_models = max(1, int(space * kb_density))
        workload = make_model_set_workload(
            num_atoms, kb_models, kb_models, pairs, seed
        )
        with obs.use() as registry:
            for factory in (ReveszFitting, DalalRevision):
                run_workload(factory(vectorized=True), workload)
            obs.write_metrics(metrics_path, registry)
    return payload


def measure_engine_crossover(
    atom_counts: Sequence[int] = (4, 8, 12, 16),
    num_clauses_factor: float = 2.0,
    clause_size: int = 3,
    seed: int = 0,
) -> list[dict]:
    """E10 rows: truth-table vs DPLL enumeration time per vocabulary size.

    Truth-table cost is Θ(2^|𝒯|) regardless of the formula; DPLL depends
    on the model count, so it wins when the space is large and the model
    set sparse.
    """
    rows = []
    truth_table = TruthTableEngine()
    dpll = DpllEngine()
    bdd = BddEngine()
    for num_atoms in atom_counts:
        vocabulary = random_vocabulary(num_atoms)
        formula = random_kcnf(
            vocabulary, int(num_atoms * num_clauses_factor), clause_size, seed
        )
        start = time.perf_counter()
        tt_models = truth_table.models(formula, vocabulary)
        tt_seconds = time.perf_counter() - start
        start = time.perf_counter()
        dpll_models = dpll.models(formula, vocabulary)
        dpll_seconds = time.perf_counter() - start
        start = time.perf_counter()
        bdd_models = bdd.models(formula, vocabulary)
        bdd_seconds = time.perf_counter() - start
        assert tt_models == dpll_models == bdd_models, "engines disagree"
        rows.append(
            {
                "atoms": num_atoms,
                "models": len(tt_models),
                "truth_table_seconds": tt_seconds,
                "dpll_seconds": dpll_seconds,
                "bdd_seconds": bdd_seconds,
                "ratio_dpll_over_tt": (
                    dpll_seconds / tt_seconds if tt_seconds > 0 else float("inf")
                ),
            }
        )
    return rows
