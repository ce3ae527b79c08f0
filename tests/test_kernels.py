"""Property tests for the vectorized distance kernels.

Every kernel carries an exactness contract: not "close", but *identical*
to the scalar reference path — including IEEE float results from
:class:`WeightedHammingDistance` (same accumulation order) and exact
:class:`~fractions.Fraction` keys from ``wdist``.  Hypothesis drives the
comparison across random vocabularies of 2–12 atoms.  The packed-bitset
kernels (Winslett's update, Borgida's conflict branch, prime implicants)
are held to the scalar loops they replace below 13 atoms, on every size
from 0 to 13.
"""

from __future__ import annotations

import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.bench.reference import reference_assignment, reference_operator
from repro.core.fitting import (
    LeximaxFitting,
    PriorityFitting,
    ReveszFitting,
    SumFitting,
)
from repro.core.weighted import WeightedKnowledgeBase, wdist_assignment
from repro.distances import kernels
from repro.distances.base import (
    DrasticDistance,
    HammingDistance,
    WeightedHammingDistance,
)
from repro.logic.bitsets import (
    MAX_BITSET_ATOMS,
    atom_masks,
    bits_of_model_set,
    pointwise_minimal,
    prime_implicants_of_bits,
    strict_up,
    translate,
)
from repro.logic.enumeration import models
from repro.logic.implicants import _quine_mccluskey, prime_implicants
from repro.logic.interpretation import Interpretation, Vocabulary, iter_set_bits
from repro.logic.random_formulas import random_formula
from repro.logic.semantics import ModelSet
from repro.operators.revision import BorgidaRevision, DalalRevision
from repro.operators.update import WinslettUpdate, _sparse_pointwise_minimal

IMPLS = ["python"] + (["numpy"] if kernels.HAS_NUMPY else [])


def _matrix_rows(matrix) -> list[list]:
    return matrix.tolist() if hasattr(matrix, "tolist") else matrix


@st.composite
def mask_instances(draw, min_atoms=2, max_atoms=12, min_masks=0):
    """A vocabulary plus two non-empty-ish mask batches over it."""
    num_atoms = draw(st.integers(min_atoms, max_atoms))
    vocabulary = Vocabulary([f"x{i}" for i in range(num_atoms)])
    space = vocabulary.interpretation_count
    masks = st.integers(0, space - 1)
    left = draw(st.lists(masks, min_size=max(1, min_masks), max_size=12, unique=True))
    right = draw(st.lists(masks, min_size=min_masks, max_size=12, unique=True))
    return vocabulary, left, right


@st.composite
def weight_fractions(draw, vocabulary_size):
    """Per-atom Fraction weights with small numerators/denominators."""
    return [
        Fraction(draw(st.integers(0, 9)), draw(st.integers(1, 7)))
        for _ in range(vocabulary_size)
    ]


class TestMatrixEquality:
    @given(mask_instances(min_masks=1))
    def test_hamming_matrix_matches_scalar(self, instance):
        vocabulary, left, right = instance
        metric = HammingDistance()
        expected = [
            [metric.between_masks(l, r, vocabulary) for r in right] for l in left
        ]
        for impl in IMPLS:
            assert _matrix_rows(kernels.hamming_matrix(left, right, impl)) == expected

    @given(mask_instances(min_masks=1))
    def test_drastic_matrix_matches_scalar(self, instance):
        vocabulary, left, right = instance
        metric = DrasticDistance()
        expected = [
            [metric.between_masks(l, r, vocabulary) for r in right] for l in left
        ]
        for impl in IMPLS:
            assert _matrix_rows(kernels.drastic_matrix(left, right, impl)) == expected

    @given(mask_instances(min_masks=1), st.data())
    def test_weighted_matrix_bit_identical(self, instance, data):
        vocabulary, left, right = instance
        weights = data.draw(weight_fractions(vocabulary.size))
        metric = WeightedHammingDistance(
            dict(zip(vocabulary.atoms, [float(w) for w in weights]))
        )
        expected = [
            [metric.between_masks(l, r, vocabulary) for r in right] for l in left
        ]
        vector = metric.weight_vector(vocabulary)
        for impl in IMPLS:
            got = _matrix_rows(kernels.weighted_hamming_matrix(left, right, vector, impl))
            # Strict equality: the kernels accumulate in scalar order.
            assert got == expected, impl

    @given(mask_instances(min_masks=1))
    def test_distance_matrix_dispatch(self, instance):
        vocabulary, left, right = instance
        for metric in (None, HammingDistance(), DrasticDistance()):
            reference = metric if metric is not None else HammingDistance()
            expected = [
                [reference.between_masks(l, r, vocabulary) for r in right]
                for l in left
            ]
            got = _matrix_rows(
                kernels.distance_matrix(left, right, vocabulary, metric)
            )
            assert got == expected


class TestKeyAggregators:
    @given(mask_instances(min_masks=1))
    def test_row_aggregates_match_python(self, instance):
        vocabulary, left, right = instance
        rows = [[(l ^ r).bit_count() for r in right] for l in left]
        for impl in IMPLS:
            matrix = kernels.hamming_matrix(left, right, impl)
            assert kernels.max_keys(matrix) == [max(row) for row in rows]
            assert kernels.min_keys(matrix) == [min(row) for row in rows]
            assert kernels.sum_keys(matrix) == [sum(row) for row in rows]
            assert kernels.leximax_keys(matrix) == [
                tuple(sorted(row, reverse=True)) for row in rows
            ]
            assert kernels.row_keys(matrix) == [tuple(row) for row in rows]

    @given(mask_instances(min_masks=1), st.data())
    def test_float_sum_keys_bit_identical(self, instance, data):
        vocabulary, left, right = instance
        weights = data.draw(weight_fractions(vocabulary.size))
        metric = WeightedHammingDistance(
            dict(zip(vocabulary.atoms, [float(w) for w in weights]))
        )
        scalar = [
            sum(metric.between_masks(l, r, vocabulary) for r in right) for l in left
        ]
        vector = metric.weight_vector(vocabulary)
        for impl in IMPLS:
            matrix = kernels.weighted_hamming_matrix(left, right, vector, impl)
            assert kernels.sum_keys(matrix) == scalar, impl


class TestWdistKeys:
    @given(mask_instances(min_masks=1), st.data())
    def test_exact_fractions_match_scalar_wdist(self, instance, data):
        vocabulary, candidates, support = instance
        # Reuse the masks as weighted support; weights per support model.
        support_weights = [
            Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 7)))
            for _ in support
        ]
        kb = WeightedKnowledgeBase(
            vocabulary, dict(zip(support, support_weights))
        )
        expected = [
            kb.wdist(Interpretation(vocabulary, mask)) for mask in candidates
        ]
        for impl in IMPLS:
            got = kernels.wdist_keys(
                candidates,
                sorted(kb._weights),
                [kb._weights[m] for m in sorted(kb._weights)],
                vocabulary,
                impl=impl,
            )
            assert got == expected, impl
            assert all(isinstance(value, Fraction) for value in got)

    def test_empty_support_is_zero(self):
        vocabulary = Vocabulary(["a", "b"])
        assert kernels.wdist_keys([0, 1, 2], [], [], vocabulary) == [
            Fraction(0)
        ] * 3

    def test_huge_weights_fall_back_to_exact_python_ints(self):
        vocabulary = Vocabulary(["a", "b", "c"])
        weights = [Fraction(10**30), Fraction(1, 3)]
        got = kernels.wdist_keys([0b101], [0b010, 0b111], weights, vocabulary)
        expected = [
            Fraction(3) * Fraction(10**30) + Fraction(1) * Fraction(1, 3)
        ]
        assert got == expected


class TestOperatorEquivalence:
    """Scalar and vectorized paths select identical Mod(ψ ▷ μ) / Mod(ψ ∘ μ)."""

    FACTORIES = [
        ReveszFitting,
        SumFitting,
        LeximaxFitting,
        PriorityFitting,
        DalalRevision,
    ]

    @given(mask_instances(min_masks=1))
    def test_randomized_inputs(self, instance):
        vocabulary, psi_masks, mu_masks = instance
        psi = ModelSet(vocabulary, psi_masks)
        mu = ModelSet(vocabulary, mu_masks)
        for factory in self.FACTORIES:
            scalar = reference_operator(factory()).apply_models(psi, mu)
            vectorized = factory().apply_models(psi, mu)
            assert scalar == vectorized, factory.__name__

    @given(mask_instances(min_masks=1), st.data())
    def test_weighted_hamming_metric(self, instance, data):
        vocabulary, psi_masks, mu_masks = instance
        weights = data.draw(weight_fractions(vocabulary.size))
        metric = WeightedHammingDistance(
            dict(zip(vocabulary.atoms, [float(w) for w in weights]))
        )
        psi = ModelSet(vocabulary, psi_masks)
        mu = ModelSet(vocabulary, mu_masks)
        for factory in (ReveszFitting, DalalRevision):
            scalar = reference_operator(factory(distance=metric)).apply_models(psi, mu)
            vectorized = factory(distance=metric).apply_models(psi, mu)
            assert scalar == vectorized, factory.__name__

    @given(mask_instances(min_masks=1), st.data())
    def test_weighted_fitting_min(self, instance, data):
        vocabulary, support, mu_masks = instance
        support_weights = [
            Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 7)))
            for _ in support
        ]
        kb = WeightedKnowledgeBase(vocabulary, dict(zip(support, support_weights)))
        mu = ModelSet(vocabulary, mu_masks)
        scalar_order = reference_assignment(wdist_assignment()).order_for(kb)
        vector_order = wdist_assignment().order_for(kb)
        assert scalar_order.minimal(mu) == vector_order.minimal(mu)


class TestDiffKernels:
    @given(mask_instances())
    def test_pairwise_diffs_matches_setcomp(self, instance):
        _, left, right = instance
        expected = {l ^ r for l in left for r in right}
        for impl in IMPLS:
            assert kernels.pairwise_diffs(left, right, impl) == expected

    @given(st.lists(st.integers(0, 2**12 - 1), max_size=40))
    def test_minimal_subset_masks_matches_quadratic(self, masks):
        unique = set(masks)
        expected = {
            diff
            for diff in unique
            if not any(
                other != diff and (other & diff) == other for other in unique
            )
        }
        assert kernels.minimal_subset_masks(masks) == expected


def winslett_reference(psi: ModelSet, mu: ModelSet) -> set[int]:
    """Winslett's update as the pairwise loop it was first written as:
    per ψ-model, keep the μ-models whose difference from it no other
    μ-model's difference strictly contains — O(|ψ|·|μ|²)."""
    chosen: set[int] = set()
    for psi_mask in psi.masks:
        diffs = [(mu_mask ^ psi_mask, mu_mask) for mu_mask in mu.masks]
        for diff, mu_mask in diffs:
            if not any(other != diff and (other & diff) == other for other, _ in diffs):
                chosen.add(mu_mask)
    return chosen


def borgida_reference(psi: ModelSet, mu: ModelSet) -> set[int]:
    """Borgida's revision: μ on an empty ψ, ψ ∧ μ when consistent, else
    Winslett's per-model change."""
    if psi.is_empty:
        return set(mu.masks)
    both = set(psi.masks) & set(mu.masks)
    return both if both else winslett_reference(psi, mu)


def _vocabulary_of(size: int) -> Vocabulary:
    return Vocabulary([f"p{index}" for index in range(size)])


def model_sets_over(size: int, formula_atoms: int = 6) -> st.SearchStrategy[ModelSet]:
    """Seeded samples of up to 64 models (every subset size below 7
    atoms), and up to ``formula_atoms`` atoms also the structured model
    sets of random depth-3 formulas."""
    vocabulary = _vocabulary_of(size)
    total = vocabulary.interpretation_count

    def sample(seed: int, count: int) -> ModelSet:
        masks = random.Random(seed).sample(range(total), min(count, total))
        return ModelSet(vocabulary, masks)

    def formula_models(seed: int) -> ModelSet:
        return models(random_formula(vocabulary, 3, seed), vocabulary)

    seeds = st.integers(0, 2**32 - 1)
    choices = [st.builds(sample, seeds, st.integers(0, 64))]
    if 0 < size <= formula_atoms:
        choices.append(seeds.map(formula_models))
    return st.one_of(choices)


#: Every vocabulary size on the bitset side of the cap.
BITSET_SIZES = range(MAX_BITSET_ATOMS + 1)
#: 0 atoms, small, at the cap, and one past it (the sparse paths).
EDGE_SIZES = [0, 1, 3, 8, MAX_BITSET_ATOMS, MAX_BITSET_ATOMS + 1]


def _some_models(vocabulary: Vocabulary) -> ModelSet:
    """About twenty evenly spread models (all of them below 5 atoms)."""
    total = vocabulary.interpretation_count
    return ModelSet(vocabulary, range(0, total, max(1, total // 20)))


class TestBitsetKernels:
    """The packed-bitset kernels against their scalar references, on both
    sides of :data:`MAX_BITSET_ATOMS`."""

    @pytest.mark.parametrize("size", BITSET_SIZES)
    @settings(max_examples=12)
    @given(data=st.data())
    def test_winslett_matches_pairwise_loop(self, size, data):
        psi = data.draw(model_sets_over(size))
        mu = data.draw(model_sets_over(size))
        expected = winslett_reference(psi, mu)
        assert set(WinslettUpdate().apply_models(psi, mu).masks) == expected
        assert set(_sparse_pointwise_minimal(psi, mu).masks) == expected

    @pytest.mark.parametrize("size", BITSET_SIZES)
    @settings(max_examples=12)
    @given(data=st.data())
    def test_borgida_matches_reference(self, size, data):
        psi = data.draw(model_sets_over(size))
        mu = data.draw(model_sets_over(size))
        expected = borgida_reference(psi, mu)
        assert set(BorgidaRevision().apply_models(psi, mu).masks) == expected

    @pytest.mark.parametrize("size", BITSET_SIZES)
    @settings(max_examples=12)
    @given(data=st.data())
    def test_prime_implicants_match_quine_mccluskey(self, size, data):
        model_set = data.draw(model_sets_over(size, formula_atoms=9))
        assert prime_implicants(model_set) == _quine_mccluskey(model_set)

    @pytest.mark.parametrize("size", [0, 1, 4, 8])
    @given(data=st.data())
    def test_primitives_match_set_comprehensions(self, size, data):
        model_set = data.draw(model_sets_over(size))
        other = data.draw(model_sets_over(size))
        masks = atom_masks(size)
        bits = bits_of_model_set(model_set)
        for by in other.masks[:4]:
            expected = {mask ^ by for mask in model_set.masks}
            assert set(iter_set_bits(translate(bits, by, masks))) == expected
        expected_up = {
            mask
            for mask in range(1 << size)
            if any(member != mask and member & mask == member for member in model_set.masks)
        }
        assert set(iter_set_bits(strict_up(bits, masks))) == expected_up

    @pytest.mark.parametrize("size", EDGE_SIZES)
    @pytest.mark.parametrize(
        "shape", ["empty-psi", "empty-mu", "psi-inside-mu", "single-model"]
    )
    def test_edge_cases(self, size, shape):
        vocabulary = _vocabulary_of(size)
        some = _some_models(vocabulary)
        single = ModelSet(vocabulary, [vocabulary.interpretation_count - 1])
        empty = ModelSet.empty(vocabulary)
        psi, mu = {
            "empty-psi": (empty, some),
            "empty-mu": (some, empty),
            "psi-inside-mu": (single, some.union(single)),
            "single-model": (single, ModelSet(vocabulary, [0])),
        }[shape]
        assert set(WinslettUpdate().apply_models(psi, mu).masks) == winslett_reference(psi, mu)
        assert set(BorgidaRevision().apply_models(psi, mu).masks) == borgida_reference(psi, mu)
        for model_set in (psi, mu):
            assert prime_implicants(model_set) == _quine_mccluskey(model_set)

    @pytest.mark.parametrize("size", EDGE_SIZES)
    def test_universe(self, size):
        # Known answers: the quadratic references are too slow here.
        vocabulary = _vocabulary_of(size)
        universe = ModelSet.universe(vocabulary)
        some = _some_models(vocabulary)
        assert WinslettUpdate().apply_models(universe, some) == some
        assert WinslettUpdate().apply_models(some, universe) == some
        assert BorgidaRevision().apply_models(universe, some) == some
        assert prime_implicants_of_bits(bits_of_model_set(universe), size) == [(0, 0)]
        if size <= 8:
            assert _quine_mccluskey(universe) == [(0, 0)]
        if size <= MAX_BITSET_ATOMS:
            assert prime_implicants(universe) == [(0, 0)]

    @settings(max_examples=15)
    @given(data=st.data())
    def test_above_the_cap_both_paths_agree(self, data):
        size = MAX_BITSET_ATOMS + 1
        psi = data.draw(model_sets_over(size))
        mu = data.draw(model_sets_over(size))
        # Public calls take the sparse path here; the bitset kernels still
        # run at this size when called directly.
        expected = winslett_reference(psi, mu)
        assert set(WinslettUpdate().apply_models(psi, mu).masks) == expected
        packed = pointwise_minimal(bits_of_model_set(psi), bits_of_model_set(mu), size)
        assert set(iter_set_bits(packed)) == expected
        assert prime_implicants(psi) == prime_implicants_of_bits(
            bits_of_model_set(psi), size
        )


class TestImplGating:
    def test_unknown_impl_rejected(self):
        with pytest.raises(ValueError):
            kernels.hamming_matrix([0], [1], impl="cuda")

    def test_wide_vocabulary_falls_back_to_python(self):
        # 64+ atom masks exceed uint64; auto must pick the python path.
        assert kernels._resolve_impl("auto", 64) == "python"
        assert kernels._resolve_impl("auto", 63) == (
            "numpy" if kernels.HAS_NUMPY else "python"
        )

    @pytest.mark.skipif(not kernels.HAS_NUMPY, reason="requires numpy")
    def test_numpy_popcount_edge_values(self):
        import numpy as np

        values = np.array([0, 1, 0xFFFF, 2**63, 2**64 - 1], dtype=np.uint64)
        expected = [int(v).bit_count() for v in values.tolist()]
        assert kernels._popcount(values).tolist() == expected
