"""Weighted-stack speedup measurement: dense vectors vs the legacy dict path.

Two workload families, mirroring the experiments they scale up:

* **E4 (weighted classroom)** — ``ψ̃ ▷ μ̃`` fitting applications.  The
  legacy path is the scalar reference: a dict-of-Fraction
  :class:`~repro.core.weighted.WeightedModelFitting` over
  ``reference_assignment(wdist_assignment())``
  (:mod:`repro.bench.reference`: one exact Fraction ``wdist`` per
  interpretation, eager order build).  The dense path is the
  engine's :class:`~repro.engine.weighted.DenseWeightedOperator`: one
  shared distance matrix, one matvec per distinct ψ̃, pointwise minima.
* **E13 (weighted merging)** — n-ary consensus: sources combined with
  ``⊔`` and ranked by ``wdist`` of the merged base at every
  interpretation — the legacy path sums Fractions per interpretation,
  the dense path is a single matrix–vector product
  (:meth:`~repro.core.weighted.WeightedKnowledgeBase.wdist_dense`).

Every row asserts checksum equality between the two paths before
reporting a speedup — a perf number for results that differ would be
meaningless.  Snapshots carry no timestamps (git history dates them).
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction
from typing import Optional, Sequence

from repro import obs
from repro.bench.reference import reference_assignment
from repro.bench.trajectory import save_snapshot, time_paths
from repro.core.weighted import (
    WeightedKnowledgeBase,
    WeightedModelFitting,
    wdist_assignment,
)
from repro.distances import HammingDistance, kernels
from repro.engine.chunks import sample_weight_maps
from repro.engine.weighted import DenseWeightedOperator
from repro.kb.serialize import canonical_digest
from repro.logic.interpretation import Interpretation, Vocabulary

__all__ = [
    "make_weighted_workload",
    "measure_fitting_speedup",
    "measure_merge_speedup",
    "write_weighted_snapshot",
]


#: Timed shots of each E4 row's dense side; the row keeps their median.
DENSE_REPEATS = 5


def _as_int(value) -> int:
    """Exact integer of a Fraction or float64 result (integer workloads
    stay integral on both paths; anything else is a path divergence)."""
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise AssertionError(f"non-integer exact weight: {value!r}")
        return value.numerator
    as_int = int(value)
    if as_int != value:
        raise AssertionError(f"non-integer dense weight: {value!r}")
    return as_int


def make_weighted_workload(
    num_atoms: int,
    pairs: int,
    seed: int = 0,
    max_weight: int = 5,
    density: float = 0.5,
) -> tuple[Vocabulary, list[tuple[dict[int, int], dict[int, int]]]]:
    """Seeded random (ψ̃, μ̃) weight-map pairs over a fresh vocabulary,
    drawn from the audit samplers' stream (satisfiable on both sides)."""
    vocabulary = Vocabulary([f"x{index}" for index in range(num_atoms)])
    generator = random.Random(seed)
    maps = sample_weight_maps(
        generator,
        2 * pairs,
        vocabulary.interpretation_count,
        max_weight,
        density,
        include_unsatisfiable=False,
    )
    workload = [(maps[2 * index], maps[2 * index + 1]) for index in range(pairs)]
    return vocabulary, workload


def measure_fitting_speedup(
    atom_counts: Sequence[int] = (10, 11),
    pairs: int = 3,
    seed: int = 0,
) -> list[dict]:
    """E4-style rows: legacy-vs-dense wall time for ``ψ̃ ▷ μ̃`` sweeps.

    Asserts that both paths produce the identical result weight function
    on every pair before reporting the ratio.  The legacy side runs once;
    the dense side, milliseconds against seconds, reports the median of
    :data:`DENSE_REPEATS` shots, each on a fresh (cold-cache) operator.
    """
    rows = []
    for num_atoms in atom_counts:
        vocabulary, workload = make_weighted_workload(num_atoms, pairs, seed)
        legacy_operator = WeightedModelFitting(reference_assignment(wdist_assignment()))
        dense_operator = DenseWeightedOperator(WeightedModelFitting(), vocabulary)

        def legacy() -> list[dict[str, int]]:
            results = []
            for psi_map, mu_map in workload:
                psi = WeightedKnowledgeBase(vocabulary, psi_map)
                mu = WeightedKnowledgeBase(vocabulary, mu_map)
                result = legacy_operator.apply(psi, mu)
                results.append(
                    {
                        str(mask): _as_int(result.weight_of_mask(mask))
                        for mask in result.support().masks
                    }
                )
            return results

        def dense(dense_operator) -> list[dict[str, int]]:
            results = []
            for psi_map, mu_map in workload:
                psi = WeightedKnowledgeBase(vocabulary, psi_map)
                mu = WeightedKnowledgeBase(vocabulary, mu_map)
                vector = dense_operator.apply_dense(psi.dense(), mu.dense())
                results.append(
                    {
                        str(mask): _as_int(value)
                        for mask, value in enumerate(vector)
                        if value
                    }
                )
            return results

        timing = time_paths(
            ("legacy", legacy),
            ("dense", lambda: dense(dense_operator)),
            checksum=canonical_digest,
            what=f"fitting at |𝒯|={num_atoms}",
        )
        shots = [timing["dense_seconds"]]
        while len(shots) < DENSE_REPEATS:
            dense_operator = DenseWeightedOperator(WeightedModelFitting(), vocabulary)
            start = time.perf_counter()
            dense(dense_operator)
            shots.append(time.perf_counter() - start)
        timing["dense_seconds"] = statistics.median(shots)
        timing["speedup"] = timing["legacy_seconds"] / timing["dense_seconds"]
        rows.append(
            {
                "key": f"atoms={num_atoms} workload=e4-fitting",
                "workload": "e4-fitting",
                "atoms": num_atoms,
                "pairs": pairs,
                "dense_backend": dense_operator.dense,
                **timing,
                "cache_info": {
                    name: info._asdict()
                    for name, info in dense_operator.cache_info().items()
                },
            }
        )
    return rows


def measure_merge_speedup(
    atom_counts: Sequence[int] = (10, 11),
    sources: int = 4,
    seed: int = 0,
) -> list[dict]:
    """E13-style rows: legacy-vs-dense ``wdist`` ranking of a merged base.

    Joins ``sources`` weighted KBs and evaluates ``wdist`` at every
    interpretation — the ranking pass behind an n-ary consensus — once as
    the exact per-interpretation Fraction sum and once as a single dense
    matrix–vector product, asserting value-for-value equality.
    """
    metric = HammingDistance()
    rows = []
    for num_atoms in atom_counts:
        vocabulary, workload = make_weighted_workload(num_atoms, sources, seed)
        combined = WeightedKnowledgeBase(vocabulary, workload[0][0])
        for psi_map, _ in workload[1:]:
            combined = combined.join(WeightedKnowledgeBase(vocabulary, psi_map))
        timing = time_paths(
            (
                "legacy",
                lambda: [
                    _as_int(
                        combined.wdist(Interpretation(vocabulary, mask), metric)
                    )
                    for mask in range(vocabulary.interpretation_count)
                ],
            ),
            (
                "dense",
                lambda: [_as_int(value) for value in combined.wdist_dense(metric)],
            ),
            checksum=canonical_digest,
            what=f"merge at |𝒯|={num_atoms}",
        )
        rows.append(
            {
                "key": f"atoms={num_atoms} workload=e13-merge-wdist",
                "workload": "e13-merge-wdist",
                "atoms": num_atoms,
                "sources": sources,
                "support": len(combined.support()),
                **timing,
            }
        )
    return rows


def write_weighted_snapshot(
    path: str = "BENCH_e4_weighted.json",
    atom_counts: Sequence[int] = (10, 11),
    pairs: int = 3,
    sources: int = 4,
    seed: int = 0,
    metrics_path: Optional[str] = None,
) -> dict:
    """Emit the weighted speedup snapshot consumed by future PRs.

    ``metrics_path`` additionally writes an observability payload from one
    instrumented replay of the smallest fitting workload *after* the timed
    rows, so the timings themselves stay uninstrumented.
    """
    payload = save_snapshot(
        path,
        "E4-weighted",
        {"atom_counts": atom_counts, "pairs": pairs, "sources": sources, "seed": seed},
        numpy=kernels.HAS_NUMPY,
        fitting_speedup=measure_fitting_speedup(atom_counts, pairs, seed),
        merge_speedup=measure_merge_speedup(atom_counts, sources, seed),
    )
    if metrics_path is not None:
        num_atoms = min(atom_counts)
        vocabulary, workload = make_weighted_workload(num_atoms, pairs, seed)
        with obs.use() as registry:
            operator = DenseWeightedOperator(WeightedModelFitting(), vocabulary)
            for psi_map, mu_map in workload:
                psi = WeightedKnowledgeBase(vocabulary, psi_map)
                mu = WeightedKnowledgeBase(vocabulary, mu_map)
                operator.apply_dense(psi.dense(), mu.dense())
            obs.write_metrics(metrics_path, registry)
    return payload
