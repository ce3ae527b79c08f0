"""Differential harness: the dense backend is the oracle for the symbolic one.

Every test here runs the same workload through both backends and demands
*exact* agreement — model sets, verdicts, scenario counts, and FIRST
counterexamples, not just holds/fails — because the symbolic backend's
whole claim is "same answers, no ``2^|T|`` wall".
"""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench.experiments import standard_operators
from repro.core.arbitration import ArbitrationOperator
from repro.core.fitting import ReveszFitting
from repro.distances.kernels import minimal_subset_masks, pairwise_diffs
from repro.errors import ReproError
from repro.logic.bdd import FALSE, clear_managers, manager_for
from repro.logic.interpretation import Vocabulary, iter_set_bits
from repro.logic.semantics import ModelSet
from repro.operators.base import TheoryChangeOperator
from repro.orders.symbolic import max_distance_preorder, min_distance_preorder
from repro.postulates import ALL_AXIOMS, check_axiom
from repro.postulates.matrix import compute_matrix
from repro.symbolic import (
    SymbolicModelSet,
    SymbolicOperator,
    apply_models_symbolic,
    check_axiom_symbolic,
    merge_models_symbolic,
    supports_symbolic,
)

SYMBOLIC_OPERATORS = [op for op in standard_operators() if supports_symbolic(op)]
ARBITRATION = ArbitrationOperator(ReveszFitting())


def _vocab(atoms: int) -> Vocabulary:
    return Vocabulary([chr(ord("a") + index) for index in range(atoms)])


def _dense(vocabulary: Vocabulary, bits: int) -> ModelSet:
    return ModelSet(vocabulary, iter_set_bits(bits))


def _pair(operator: TheoryChangeOperator, vocabulary, psi_bits, mu_bits):
    """(dense result, symbolic result densified) for one scenario."""
    dense = operator.apply_models(
        _dense(vocabulary, psi_bits), _dense(vocabulary, mu_bits)
    )
    symbolic = apply_models_symbolic(
        operator,
        SymbolicModelSet.from_truth_bits(vocabulary, psi_bits),
        SymbolicModelSet.from_truth_bits(vocabulary, mu_bits),
    ).to_model_set()
    return dense, symbolic


class TestApplyModelsParity:
    """apply_models agreement on every supported operator, 2–5 atoms."""

    @pytest.mark.parametrize(
        "operator", SYMBOLIC_OPERATORS + [ARBITRATION], ids=lambda op: op.name
    )
    @given(data=st.data(), atoms=st.integers(min_value=2, max_value=5))
    def test_dense_and_symbolic_agree(self, operator, data, atoms):
        vocabulary = _vocab(atoms)
        space = 1 << vocabulary.interpretation_count
        psi_bits = data.draw(st.integers(min_value=0, max_value=space - 1))
        mu_bits = data.draw(st.integers(min_value=0, max_value=space - 1))
        dense, symbolic = _pair(operator, vocabulary, psi_bits, mu_bits)
        assert dense == symbolic

    def test_exhaustive_two_atoms(self):
        """All 256 scenario pairs at two atoms, every operator: a proof,
        not a sample."""
        vocabulary = _vocab(2)
        for operator in SYMBOLIC_OPERATORS + [ARBITRATION]:
            for psi_bits in range(16):
                for mu_bits in range(16):
                    dense, symbolic = _pair(
                        operator, vocabulary, psi_bits, mu_bits
                    )
                    assert dense == symbolic, (
                        f"{operator.name} disagrees at ψ={psi_bits} μ={mu_bits}"
                    )

    def test_seeded_parity_at_ten_atoms(self):
        """A bigger-vocabulary spot check: dense is slow but still feasible
        at 10 atoms, so run a few seeded scenarios end to end."""
        vocabulary = _vocab(10)
        rng = random.Random(42)
        space_bits = vocabulary.interpretation_count
        for operator in SYMBOLIC_OPERATORS:
            for _ in range(3):
                psi_bits = rng.getrandbits(space_bits)
                mu_bits = rng.getrandbits(space_bits)
                dense, symbolic = _pair(operator, vocabulary, psi_bits, mu_bits)
                assert dense == symbolic, operator.name


class TestMergeParity:
    @given(
        data=st.data(),
        atoms=st.integers(min_value=2, max_value=4),
        sources=st.integers(min_value=1, max_value=4),
    )
    def test_merge_agrees(self, data, atoms, sources):
        vocabulary = _vocab(atoms)
        space = 1 << vocabulary.interpretation_count
        bits = [
            data.draw(st.integers(min_value=0, max_value=space - 1))
            for _ in range(sources)
        ]
        dense = ARBITRATION.merge_models([_dense(vocabulary, b) for b in bits])
        symbolic = merge_models_symbolic(
            ARBITRATION,
            [SymbolicModelSet.from_truth_bits(vocabulary, b) for b in bits],
        ).to_model_set()
        assert dense == symbolic


class TestLevelSetParity:
    """Per-distance-level agreement of the symbolic pre-orders: every level
    of ``≤ψ`` must contain exactly the interpretations the dense rank
    function puts there, witnesses included."""

    @given(data=st.data(), atoms=st.integers(min_value=2, max_value=4))
    def test_min_distance_levels(self, data, atoms):
        vocabulary = _vocab(atoms)
        count = vocabulary.interpretation_count
        base_bits = data.draw(st.integers(min_value=1, max_value=(1 << count) - 1))
        base_masks = [m for m in range(count) if base_bits >> m & 1]
        manager = manager_for(vocabulary)
        preorder = min_distance_preorder(
            manager, manager.from_truth_bits(base_bits)
        )
        for mask in range(count):
            expected = min(
                (mask ^ other).bit_count() for other in base_masks
            )
            assert preorder.rank_of(mask) == expected

    @given(data=st.data(), atoms=st.integers(min_value=2, max_value=4))
    def test_max_distance_levels(self, data, atoms):
        vocabulary = _vocab(atoms)
        count = vocabulary.interpretation_count
        base_bits = data.draw(st.integers(min_value=1, max_value=(1 << count) - 1))
        base_masks = [m for m in range(count) if base_bits >> m & 1]
        manager = manager_for(vocabulary)
        preorder = max_distance_preorder(
            manager, manager.from_truth_bits(base_bits)
        )
        for mask in range(count):
            expected = max(
                (mask ^ other).bit_count() for other in base_masks
            )
            assert preorder.rank_of(mask) == expected

    @given(data=st.data(), atoms=st.integers(min_value=2, max_value=4))
    def test_sphere_model_counts_and_membership(self, data, atoms):
        """Each sphere is exactly one rank's worth of interpretations:
        counts match the brute-force histogram and every member evaluates
        into the sphere node."""
        vocabulary = _vocab(atoms)
        count = vocabulary.interpretation_count
        base_bits = data.draw(st.integers(min_value=1, max_value=(1 << count) - 1))
        base_masks = [m for m in range(count) if base_bits >> m & 1]
        manager = manager_for(vocabulary)
        for factory, reducer in (
            (min_distance_preorder, min),
            (max_distance_preorder, max),
        ):
            preorder = factory(manager, manager.from_truth_bits(base_bits))
            by_rank: dict[int, set[int]] = {}
            for mask in range(count):
                rank = reducer((mask ^ other).bit_count() for other in base_masks)
                by_rank.setdefault(rank, set()).add(mask)
            for rank in range(preorder.max_rank + 1):
                sphere = preorder.sphere_node(rank)
                expected = by_rank.get(rank, set())
                assert manager.count_models(sphere) == len(expected)
                assert set(manager.iter_models(sphere)) == expected

    @given(data=st.data(), atoms=st.integers(min_value=2, max_value=4))
    def test_minimal_returns_the_rank_minimal_candidates(self, data, atoms):
        vocabulary = _vocab(atoms)
        count = vocabulary.interpretation_count
        base_bits = data.draw(st.integers(min_value=1, max_value=(1 << count) - 1))
        cand_bits = data.draw(st.integers(min_value=0, max_value=(1 << count) - 1))
        base_masks = [m for m in range(count) if base_bits >> m & 1]
        cand_masks = [m for m in range(count) if cand_bits >> m & 1]
        manager = manager_for(vocabulary)
        for factory, reducer in (
            (min_distance_preorder, min),
            (max_distance_preorder, max),
        ):
            preorder = factory(manager, manager.from_truth_bits(base_bits))
            result = preorder.minimal(manager.from_truth_bits(cand_bits))
            if not cand_masks:
                assert result == FALSE
                continue
            ranks = {
                mask: reducer((mask ^ o).bit_count() for o in base_masks)
                for mask in cand_masks
            }
            best = min(ranks.values())
            expected = {mask for mask, rank in ranks.items() if rank == best}
            assert set(manager.iter_models(result)) == expected


class TestKernelParity:
    """The BDD image/minimization kernels against the dense mask kernels."""

    @given(data=st.data(), atoms=st.integers(min_value=2, max_value=4))
    def test_xor_image_matches_pairwise_diffs(self, data, atoms):
        vocabulary = _vocab(atoms)
        count = vocabulary.interpretation_count
        left_bits = data.draw(st.integers(min_value=0, max_value=(1 << count) - 1))
        right_bits = data.draw(st.integers(min_value=0, max_value=(1 << count) - 1))
        manager = manager_for(vocabulary)
        image = manager.xor_image(
            manager.from_truth_bits(left_bits),
            manager.from_truth_bits(right_bits),
        )
        expected = pairwise_diffs(
            [m for m in range(count) if left_bits >> m & 1],
            [m for m in range(count) if right_bits >> m & 1],
        )
        assert set(manager.iter_models(image)) == expected

    @given(data=st.data(), atoms=st.integers(min_value=2, max_value=4))
    def test_subset_minimal_matches_minimal_subset_masks(self, data, atoms):
        vocabulary = _vocab(atoms)
        count = vocabulary.interpretation_count
        bits = data.draw(st.integers(min_value=0, max_value=(1 << count) - 1))
        manager = manager_for(vocabulary)
        minimal = manager.subset_minimal(manager.from_truth_bits(bits))
        expected = minimal_subset_masks(
            m for m in range(count) if bits >> m & 1
        )
        assert set(manager.iter_models(minimal)) == expected


def _results_equal(dense, symbolic) -> bool:
    """CheckResult equality minus `metrics` (compare=False already) — spelled
    out so failures print which field diverged."""
    return (
        dense.axiom == symbolic.axiom
        and dense.operator == symbolic.operator
        and dense.holds == symbolic.holds
        and dense.scenarios_checked == symbolic.scenarios_checked
        and dense.exhaustive == symbolic.exhaustive
        and dense.counterexample == symbolic.counterexample
    )


class TestCheckAxiomParity:
    """Full CheckResult identity — verdict, count, exhaustive flag, and the
    FIRST counterexample object — between the dense serial harness and the
    symbolic one."""

    @pytest.mark.parametrize("operator", SYMBOLIC_OPERATORS, ids=lambda o: o.name)
    def test_exhaustive_two_atom_verdicts(self, operator):
        vocabulary = _vocab(2)
        for axiom in ALL_AXIOMS:
            dense = check_axiom(operator, axiom, vocabulary, max_scenarios=5000)
            symbolic = check_axiom_symbolic(
                operator, axiom, vocabulary, max_scenarios=5000
            )
            assert _results_equal(dense, symbolic), (
                f"{operator.name}/{axiom.name}: dense={dense} symbolic={symbolic}"
            )

    @pytest.mark.parametrize("operator", SYMBOLIC_OPERATORS, ids=lambda o: o.name)
    @pytest.mark.parametrize("atoms", [4, 7, 10])
    def test_sampled_verdicts_and_first_counterexamples(self, operator, atoms):
        # The dense oracle's per-scenario cost grows steeply with the
        # vocabulary; shrink the sample rather than the atom ladder.
        scenarios = 40 if atoms < 10 else 10
        vocabulary = _vocab(atoms)
        for axiom in ALL_AXIOMS[::3]:
            for seed in (0, 9):
                dense = check_axiom(
                    operator, axiom, vocabulary, max_scenarios=scenarios, rng=seed
                )
                symbolic = check_axiom_symbolic(
                    operator, axiom, vocabulary, max_scenarios=scenarios, rng=seed
                )
                assert _results_equal(dense, symbolic), (
                    f"{operator.name}/{axiom.name}@{atoms} atoms seed {seed}"
                )

    def test_counterexample_identity_where_axioms_fail(self):
        """Pick cells known to fail (the matrix has ✗ cells for every
        operator) and require bit-identical first counterexamples."""
        vocabulary = _vocab(3)
        found = 0
        for operator in SYMBOLIC_OPERATORS:
            for axiom in ALL_AXIOMS:
                dense = check_axiom(
                    operator, axiom, vocabulary, max_scenarios=300, rng=1
                )
                if dense.holds:
                    continue
                symbolic = check_axiom_symbolic(
                    operator, axiom, vocabulary, max_scenarios=300, rng=1
                )
                assert symbolic.counterexample == dense.counterexample
                assert symbolic.scenarios_checked == dense.scenarios_checked
                found += 1
        assert found > 0, "expected at least one failing cell to compare"

    def test_matrix_checksums_equal(self):
        """The whole audit matrix, both backends, checksum-for-checksum."""
        from repro.bench.audit_speedup import matrix_checksum

        vocabulary = _vocab(3)
        dense = compute_matrix(
            SYMBOLIC_OPERATORS, vocabulary, max_scenarios=120, rng=3
        )
        symbolic = compute_matrix(
            SYMBOLIC_OPERATORS,
            vocabulary,
            max_scenarios=120,
            rng=3,
            impl="symbolic",
        )
        assert matrix_checksum(dense) == matrix_checksum(symbolic)

    def test_matrix_checksum_of_symbolic_counterexamples_at_17_atoms(self):
        """Above 16 atoms counterexamples stay BDD-backed: the checksum
        must encode them without dense bit-vectors, and identically for
        a rerun on a fresh BDD manager."""
        from repro.bench.audit_speedup import matrix_checksum

        names = ("dalal", "satoh", "weber", "revesz-odist")
        operators = [op for op in SYMBOLIC_OPERATORS if op.name in names]
        assert len(operators) == len(names)
        vocabulary = _vocab(17)

        def sweep():
            clear_managers()
            return compute_matrix(
                operators, vocabulary, max_scenarios=10, rng=0, impl="symbolic"
            )

        first = sweep()
        failing = [
            result
            for row in first.results.values()
            for result in row.values()
            if not result.holds
        ]
        assert len(failing) == 6
        assert matrix_checksum(first) == matrix_checksum(sweep())

    def test_parallel_dense_baseline_still_matches(self):
        """jobs=2 dense stays result-identical to serial dense (and hence
        to symbolic) — keeps the fault-injection lane meaningful when it
        replays this suite."""
        operator = SYMBOLIC_OPERATORS[0]
        vocabulary = _vocab(2)
        axiom = ALL_AXIOMS[0]
        serial = check_axiom(operator, axiom, vocabulary, max_scenarios=400)
        parallel = check_axiom(
            operator, axiom, vocabulary, max_scenarios=400, jobs=2
        )
        assert _results_equal(serial, parallel)


class TestThirtyAtomSmoke:
    """The point of the backend: audits that no dense path could attempt."""

    def test_check_axiom_completes_at_thirty_atoms(self):
        vocabulary = Vocabulary([f"x{i}" for i in range(30)])
        operator = SYMBOLIC_OPERATORS[0]
        result = check_axiom_symbolic(
            operator, ALL_AXIOMS[0], vocabulary, max_scenarios=4, rng=0
        )
        assert result.scenarios_checked == 4
        assert not result.exhaustive
        assert result.metrics["scenario_mode"] == "formula"

    def test_symbolic_operator_rejects_dense_only_operators(self):
        dense_only = [
            op for op in standard_operators() if not supports_symbolic(op)
        ]
        assert dense_only, "roster should still contain dense-only operators"
        for operator in dense_only:
            with pytest.raises(ReproError):
                SymbolicOperator(operator)

    def test_harness_refuses_symbolic_with_jobs(self):
        vocabulary = _vocab(2)
        with pytest.raises(ReproError):
            check_axiom(
                SYMBOLIC_OPERATORS[0],
                ALL_AXIOMS[0],
                vocabulary,
                jobs=2,
                impl="symbolic",
            )
