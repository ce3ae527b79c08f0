"""Tests for the bounded assignment cache and its wiring.

Regression coverage for two bugs in the pre-kernel assignment layer: the
ad-hoc ``dict`` caches grew without bound over long sessions, and a cache
key that ignored the vocabulary would have let mask-identical model sets
over different vocabularies collide (the ``ModelSet`` key does include
the vocabulary — the cross-vocabulary test pins that down).
"""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.core.fitting import ReveszFitting
from repro.core.weighted import (
    WdistOrderBuilder,
    WeightedKnowledgeBase,
    WeightedModelFitting,
)
from repro.distances.base import HammingDistance
from repro.logic.interpretation import Vocabulary
from repro.logic.semantics import ModelSet
from repro.operators.revision import SatohRevision
from repro.orders.cache import DEFAULT_CACHE_SIZE, Assignment, AssignmentCache, CacheInfo
from repro.orders.faithful import MinDistanceBuilder
from repro.orders.loyal import MaxDistanceBuilder, max_distance_assignment


class TestAssignmentCache:
    def test_hit_miss_eviction_counters(self):
        cache = AssignmentCache(maxsize=2)
        builds = []

        def builder(key):
            builds.append(key)
            return key * 10

        assert cache.get_or_build(1, builder) == 10
        assert cache.get_or_build(1, builder) == 10
        assert cache.get_or_build(2, builder) == 20
        assert cache.get_or_build(3, builder) == 30  # evicts 1
        info = cache.cache_info()
        assert info == CacheInfo(hits=1, misses=3, evictions=1, maxsize=2, currsize=2)
        assert builds == [1, 2, 3]
        assert 1 not in cache and 2 in cache and 3 in cache

    def test_lru_recency_protects_recently_used(self):
        cache = AssignmentCache(maxsize=2)
        cache.get_or_build("a", str.upper)
        cache.get_or_build("b", str.upper)
        cache.get_or_build("a", str.upper)  # refresh "a"
        cache.get_or_build("c", str.upper)  # must evict "b", not "a"
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_unbounded_mode(self):
        cache = AssignmentCache(maxsize=None)
        for index in range(1000):
            cache.get_or_build(index, lambda key: key)
        info = cache.cache_info()
        assert info.currsize == 1000 and info.evictions == 0

    def test_invalid_maxsize_rejected(self):
        with pytest.raises(ValueError):
            AssignmentCache(maxsize=0)

    def test_clear_resets(self):
        cache = AssignmentCache(maxsize=4)
        cache.get_or_build(1, lambda key: key)
        cache.clear()
        assert len(cache) == 0
        assert cache.cache_info() == CacheInfo(0, 0, 0, 4, 0)

    def test_eviction_follows_exact_lru_order(self):
        """Victims leave in least-recently-*used* order, where hits count
        as uses: the access sequence below must evict 1, then 3, then 2."""
        cache = AssignmentCache(maxsize=3)
        for key in (1, 2, 3):
            cache.get_or_build(key, lambda k: k)
        cache.get_or_build(2, lambda k: k)  # refresh 2: order is now 1, 3, 2
        evicted = []
        for key in (4, 5, 6):
            survivors_before = {k for k in (1, 2, 3, 4, 5) if k in cache}
            cache.get_or_build(key, lambda k: k)
            survivors_after = {k for k in (1, 2, 3, 4, 5) if k in cache}
            evicted.extend(sorted(survivors_before - survivors_after))
        assert evicted == [1, 3, 2]
        assert cache.cache_info().evictions == 3


class TestBoundedAssignments:
    """Memory-growth regression: assignments no longer cache without bound."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Assignment(MaxDistanceBuilder(HammingDistance()), "odist(max)"),
            lambda: Assignment(MinDistanceBuilder(HammingDistance()), "dalal"),
        ],
        ids=["loyal", "faithful"],
    )
    def test_distinct_bases_cannot_grow_past_bound(self, make):
        assignment = make()
        vocabulary = Vocabulary([f"p{index}" for index in range(9)])
        bases = DEFAULT_CACHE_SIZE + 32
        for mask in range(bases):
            assignment.order_for(ModelSet(vocabulary, [mask]))
        info = assignment.cache_info()
        assert info.maxsize == DEFAULT_CACHE_SIZE
        assert info.currsize == DEFAULT_CACHE_SIZE
        assert info.misses == bases
        assert info.evictions == bases - DEFAULT_CACHE_SIZE

    def test_weighted_assignment_bounded(self):
        assignment = Assignment(WdistOrderBuilder(HammingDistance()), "wdist")
        vocabulary = Vocabulary([f"p{index}" for index in range(9)])
        bases = DEFAULT_CACHE_SIZE + 8
        for mask in range(bases):
            assignment.order_for(WeightedKnowledgeBase(vocabulary, {mask: 1}))
        info = assignment.cache_info()
        assert info.currsize == DEFAULT_CACHE_SIZE and info.evictions == 8

    def test_pickle_keeps_the_recipe_not_the_memo(self):
        assignment = Assignment(MaxDistanceBuilder(HammingDistance()), "odist(max)")
        assignment.order_for(ModelSet(Vocabulary(["a", "b"]), [0]))
        clone = pickle.loads(pickle.dumps(assignment))
        assert clone.name == "odist(max)"
        assert clone.cache_info() == CacheInfo(0, 0, 0, DEFAULT_CACHE_SIZE, 0)

    def test_repeat_base_hits_cache(self):
        assignment = max_distance_assignment()
        vocabulary = Vocabulary(["a", "b"])
        base = ModelSet(vocabulary, [0, 3])
        first = assignment.order_for(base)
        second = assignment.order_for(base)
        assert first is second
        info = assignment.cache_info()
        assert info.hits == 1 and info.misses == 1


class TestOperatorCacheInfo:
    def test_assignment_operator_exposes_cache_info(self):
        operator = ReveszFitting()
        vocabulary = Vocabulary(["a", "b", "c"])
        psi = ModelSet(vocabulary, [0b011])
        mu = ModelSet(vocabulary, [0b101, 0b110])
        operator.apply_models(psi, mu)
        operator.apply_models(psi, mu)
        info = operator.cache_info()
        assert info.hits == 1 and info.misses == 1
        assert info.maxsize == DEFAULT_CACHE_SIZE

    def test_operator_with_cacheless_assignment_returns_none(self):
        from repro.operators.base import AssignmentOperator, OperatorFamily

        class BareAssignment:
            name = "bare"

            def order_for(self, psi):  # pragma: no cover - never called here
                raise NotImplementedError

        operator = AssignmentOperator(
            BareAssignment(), name="bare", family=OperatorFamily.OTHER
        )
        assert operator.cache_info() is None

    def test_diff_based_operator_has_no_cache_surface(self):
        assert not hasattr(SatohRevision(), "cache_info")

    def test_weighted_fitting_exposes_cache_info(self):
        fitting = WeightedModelFitting()
        vocabulary = Vocabulary(["a", "b"])
        psi = WeightedKnowledgeBase(vocabulary, {0: 1, 3: 2})
        mu = WeightedKnowledgeBase(vocabulary, {1: 1, 2: 1})
        fitting.apply(psi, mu)
        fitting.apply(psi, mu)
        info = fitting.cache_info()
        assert info.hits == 1 and info.misses == 1


class TestCrossVocabularyRegression:
    """Mask-identical model sets over different vocabularies must not
    collide in the assignment caches."""

    def test_model_set_keys_include_vocabulary(self):
        vocab_small = Vocabulary(["a", "b"])
        vocab_large = Vocabulary(["a", "b", "c"])
        same_masks = [0b01, 0b10]
        small = ModelSet(vocab_small, same_masks)
        large = ModelSet(vocab_large, same_masks)
        assert small != large

        assignment = max_distance_assignment()
        order_small = assignment.order_for(small)
        order_large = assignment.order_for(large)
        # Two misses: the mask-identical bases did NOT collide on one entry.
        assert assignment.cache_info().misses == 2
        assert order_small is not order_large
        assert order_small.vocabulary == vocab_small
        assert order_large.vocabulary == vocab_large

    def test_threaded_cross_vocabulary_stress(self):
        """Concurrent lookups over two vocabularies through one shared
        bounded cache: no wrong-vocabulary key may ever resolve, and the
        hit/miss counters must account for every call exactly once."""
        cache = AssignmentCache(maxsize=8)
        vocabularies = [Vocabulary(["a", "b"]), Vocabulary(["a", "b", "c"])]
        calls_per_thread = 300
        errors: list[str] = []

        def build(key: ModelSet):
            # The value remembers which vocabulary built it, so a key
            # collision across vocabularies would be visible to callers.
            return ("order", key.vocabulary)

        def work(seed: int):
            for index in range(calls_per_thread):
                vocabulary = vocabularies[(seed + index) % 2]
                mask = (seed * 31 + index) % vocabulary.interpretation_count
                key = ModelSet(vocabulary, [mask])
                tag, built_for = cache.get_or_build(key, build)
                if tag != "order" or built_for is not vocabulary:
                    errors.append(
                        f"key over {vocabulary.atoms} got value built for "
                        f"{built_for.atoms}"
                    )

        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors[:3]
        info = cache.cache_info()
        assert info.hits + info.misses == 6 * calls_per_thread
        assert info.currsize <= 8

    def test_cross_vocabulary_operator_results_are_independent(self):
        operator = ReveszFitting()
        vocab_small = Vocabulary(["a", "b"])
        vocab_large = Vocabulary(["a", "b", "c"])
        psi_masks, mu_masks = [0b11], [0b00, 0b01]
        small = operator.apply_models(
            ModelSet(vocab_small, psi_masks), ModelSet(vocab_small, mu_masks)
        )
        large = operator.apply_models(
            ModelSet(vocab_large, psi_masks), ModelSet(vocab_large, mu_masks)
        )
        assert small.vocabulary == vocab_small
        assert large.vocabulary == vocab_large
        assert small.masks == large.masks == (0b01,)
