"""E9 — the Section 5 open problem, measured: comparative cost of
revision, update, fitting, and arbitration as the interpretation space
grows.

Each benchmark times one operator on a fixed seeded workload (5 pairs of
random model sets at 25% density); the printed sweep table shows the
qualitative shape: the pairwise-diff operators (Satoh/Winslett) scale with
|Mod(ψ)|·|Mod(μ)| comparisons of *sets*, the distance-rank operators
(Dalal/odist/priority-lex) with |Mod(μ)|·|Mod(ψ)| popcounts (lazy
pre-orders rank only the candidates, batched through the numpy kernels),
and arbitration pays one extra universe-sized fit.  The kernel-speedup
table compares the product operators against the eager scalar reference
(``repro.bench.reference.reference_operator``) on identical workloads.
"""

import json
import os

import pytest

from repro.bench.scaling import (
    make_model_set_workload,
    measure_kernel_speedup,
    measure_operator_sweep,
    run_workload,
    scaling_operators,
    write_scaling_snapshot,
)

WORKLOAD = make_model_set_workload(
    num_atoms=8, kb_models=64, input_models=64, pairs=5, seed=7
)

#: Smoke runs (benchmark disabled) keep the scalar baseline affordable;
#: REPRO_BENCH=1 measures the full ISSUE target sizes.
SPEEDUP_ATOMS = (10, 12, 14) if os.environ.get("REPRO_BENCH") else (8, 10)


def test_e9_sweep_table(capsys):
    rows = measure_operator_sweep(atom_counts=(4, 6, 8), pairs=3, seed=7)
    with capsys.disabled():
        print()
        print("=== E9: operator runtime sweep (seconds per pair) ===")
        header = f"{'atoms':>5} {'|Mod(ψ)|':>9} " + " ".join(
            f"{op.name:>14}" for op in scaling_operators()
        )
        print(header)
        by_atoms: dict[int, dict[str, float]] = {}
        for row in rows:
            by_atoms.setdefault(row["atoms"], {})[row["operator"]] = row[
                "seconds_per_pair"
            ]
        for atoms, per_op in sorted(by_atoms.items()):
            kb_models = next(r["kb_models"] for r in rows if r["atoms"] == atoms)
            cells = " ".join(
                f"{per_op[op.name]:>14.6f}" for op in scaling_operators()
            )
            print(f"{atoms:>5} {kb_models:>9} {cells}")
    assert rows


@pytest.mark.parametrize(
    "operator", scaling_operators(), ids=lambda op: op.name
)
def test_e9_benchmark_operator(benchmark, operator):
    checksum = benchmark(run_workload, operator, WORKLOAD)
    assert checksum >= 0


def test_e9_kernel_speedup_table(capsys):
    rows = measure_kernel_speedup(atom_counts=SPEEDUP_ATOMS, pairs=2, seed=7)
    with capsys.disabled():
        print()
        print("=== E9: scalar vs vectorized kernels ===")
        print(
            f"{'atoms':>5} {'operator':>14} {'scalar s':>10} "
            f"{'vector s':>10} {'speedup':>8}  cache"
        )
        for row in rows:
            print(
                f"{row['atoms']:>5} {row['operator']:>14} "
                f"{row['scalar_seconds']:>10.4f} "
                f"{row['vectorized_seconds']:>10.4f} "
                f"{row['speedup']:>7.1f}x  {row['cache_info']}"
            )
    # measure_kernel_speedup itself asserts scalar/vectorized checksum
    # equality; here we pin the cache accounting and (at the ISSUE's
    # target size) the ≥10× acceptance bar.
    for row in rows:
        assert row["cache_info"]["misses"] == 2
        if row["atoms"] >= 14:
            assert row["speedup"] >= 10.0, row


def test_e9_snapshot_written(tmp_path):
    path = tmp_path / "BENCH_e9.json"
    payload = write_scaling_snapshot(
        path=str(path),
        atom_counts=(6, 8),
        pairs=2,
        seed=7,
        sweep_atom_counts=(4, 6),
    )
    on_disk = json.loads(path.read_text())
    assert on_disk == payload
    assert on_disk["experiment"] == "E9"
    assert {row["operator"] for row in on_disk["kernel_speedup"]} == {
        "revesz-odist",
        "dalal",
    }
    assert all("speedup" in row for row in on_disk["kernel_speedup"])
    assert on_disk["operator_sweep"]
