"""Tests for lazy pre-order evaluation and the empty-base edge cases.

Laziness is observable through :attr:`LazyTotalPreorder.computed_count`:
``Min(Mod(μ), ≤ψ)`` must rank only the masks of ``Mod(μ)``, never the
whole ``2^|𝒯|`` universe.  The second half covers the satellite bugfix
audit: every assignment family must treat an empty ``Mod(ψ)`` uniformly
(an all-equivalent order) and every fitting operator must return ∅ on an
unsatisfiable base, per axiom A2.
"""

from __future__ import annotations

import pytest

from repro.bench.reference import reference_assignment, reference_operator
from repro.core.fitting import (
    LeximaxFitting,
    PriorityFitting,
    ReveszFitting,
    SumFitting,
)
from repro.core.weighted import WeightedKnowledgeBase, WeightedModelFitting
from repro.logic.interpretation import Vocabulary
from repro.logic.semantics import ModelSet
from repro.operators.revision import DalalRevision
from repro.orders.faithful import dalal_assignment
from repro.orders.loyal import (
    leximax_distance_assignment,
    max_distance_assignment,
    priority_distance_assignment,
    sum_distance_assignment,
)
from repro.orders.preorder import LazyTotalPreorder, TotalPreorder

VOCAB = Vocabulary(["a", "b", "c", "d", "e", "f"])

ASSIGNMENT_FACTORIES = [
    max_distance_assignment,
    sum_distance_assignment,
    leximax_distance_assignment,
    priority_distance_assignment,
    dalal_assignment,
]

FITTING_FACTORIES = [ReveszFitting, SumFitting, LeximaxFitting, PriorityFitting]


class TestLaziness:
    def test_min_only_ranks_candidates(self):
        assignment = max_distance_assignment()
        order = assignment.order_for(ModelSet(VOCAB, [0b000111, 0b111000]))
        assert isinstance(order, LazyTotalPreorder)
        assert order.computed_count == 0
        candidates = ModelSet(VOCAB, [1, 2, 4, 8])
        order.minimal(candidates)
        assert order.computed_count == 4  # not 2^6

    def test_memoization_never_recomputes(self):
        calls = []

        def batch(masks):
            calls.append(tuple(masks))
            return [mask for mask in masks]

        order = TotalPreorder.lazy(VOCAB, batch)
        order.keys_for_masks([1, 2, 3])
        order.keys_for_masks([2, 3, 4])
        assert calls == [(1, 2, 3), (4,)]
        assert order.computed_count == 4

    def test_pairwise_comparisons_are_lazy(self):
        assignment = dalal_assignment()
        order = assignment.order_for(ModelSet(VOCAB, [0]))
        assert order.leq_masks(0b1, 0b11)
        assert order.computed_count == 2

    def test_materialization_is_transparent_and_complete(self):
        assignment = max_distance_assignment()
        base = ModelSet(VOCAB, [0b010101, 0b101010])
        lazy_order = assignment.order_for(base)
        eager_order = reference_assignment(max_distance_assignment()).order_for(base)
        assert lazy_order.levels() == eager_order.levels()
        assert lazy_order.computed_count == VOCAB.interpretation_count
        assert lazy_order == eager_order
        assert hash(lazy_order) == hash(eager_order)

    def test_bad_batch_function_rejected(self):
        order = TotalPreorder.lazy(VOCAB, lambda masks: [0])
        with pytest.raises(Exception):
            order.keys_for_masks([1, 2])

    @pytest.mark.parametrize("factory", ASSIGNMENT_FACTORIES)
    def test_every_assignment_is_lazy_by_default(self, factory):
        order = factory().order_for(ModelSet(VOCAB, [0b1, 0b10]))
        assert isinstance(order, LazyTotalPreorder)
        order.minimal(ModelSet(VOCAB, [5, 6]))
        assert order.computed_count == 2


class TestEmptyBase:
    """Satellite audit: empty Mod(ψ) is handled uniformly everywhere."""

    @pytest.mark.parametrize("factory", ASSIGNMENT_FACTORIES)
    def test_empty_base_order_is_all_equivalent(self, factory):
        order = factory().order_for(ModelSet.empty(VOCAB))
        assert order.equivalent_masks(0, 63)
        assert order.equivalent_masks(7, 56)
        # Min over an all-equivalent order keeps every candidate.
        candidates = ModelSet(VOCAB, [3, 17, 42])
        assert order.minimal(candidates) == candidates

    @pytest.mark.parametrize("factory", FITTING_FACTORIES)
    @pytest.mark.parametrize("product", [False, True])
    def test_fitting_unsatisfiable_base_returns_empty(self, factory, product):
        # Axiom A2: ψ ▷ μ is unsatisfiable when ψ is, on the product
        # operator and on the scalar reference alike.
        operator = factory() if product else reference_operator(factory())
        mu = ModelSet(VOCAB, [1, 2, 3])
        result = operator.apply_models(ModelSet.empty(VOCAB), mu)
        assert result.is_empty

    @pytest.mark.parametrize("product", [False, True])
    def test_dalal_unsatisfiable_base_accepts_new(self, product):
        # Revision follows R3 instead: an inconsistent base accepts μ.
        operator = DalalRevision() if product else reference_operator(DalalRevision())
        mu = ModelSet(VOCAB, [1, 2, 3])
        assert operator.apply_models(ModelSet.empty(VOCAB), mu) == mu

    def test_weighted_fitting_zero_base_returns_zero(self):
        # Axiom F2, the weighted analogue of A2.
        fitting = WeightedModelFitting()
        psi = WeightedKnowledgeBase.zero(VOCAB)
        mu = WeightedKnowledgeBase(VOCAB, {1: 1, 2: 2})
        assert not fitting.apply(psi, mu).is_satisfiable

    @pytest.mark.parametrize("factory", FITTING_FACTORIES)
    def test_empty_mu_returns_empty(self, factory):
        # A1 direction: Mod(ψ ▷ μ) ⊆ Mod(μ), so empty μ forces ∅.
        operator = factory()
        psi = ModelSet(VOCAB, [0, 1])
        assert operator.apply_models(psi, ModelSet.empty(VOCAB)).is_empty
