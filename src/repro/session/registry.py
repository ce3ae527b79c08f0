"""Shared execution contexts: one engine per ``(operator, vocabulary, backend)``.

The execution tiers each maintain their own heavy shared state — the
dense tier one ``2^|T| × 2^|T|`` distance matrix plus bounded key/result
caches per operator (:class:`~repro.engine.batched.BatchedOperator`), the
symbolic tier one hash-consed node store per vocabulary
(:func:`repro.logic.bdd.manager_for`).  Before this module, every call
site wired that state up itself, so two callers changing theories over
the same vocabulary each paid for (and failed to share) the same matrix.

:class:`ContextRegistry` is the one place that wiring now lives: it
resolves ``(operator, vocabulary, impl)`` to a cached
:class:`ExecutionContext` through an LRU bound
(:class:`~repro.orders.cache.AssignmentCache`, surfacing
``cache.session.contexts.*`` observability counters), so concurrent
sessions over one vocabulary share one engine.  Sessions resolve their
context on every change and keep none of their own, so the LRU is the
only holder of contexts and its bound is the memory ceiling.

Exactness: a context answers *identically* to calling the wrapped
operator directly — dense contexts go through ``BatchedOperator`` (whose
results are pinned bit-identical to the legacy path by the engine suite)
and symbolic contexts through the very executors ``impl="symbolic"``
always used.  ``tests/test_session.py`` regression-pins this per
operator and per backend.
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.core.arbitration import ArbitrationOperator
from repro.core.pairwise import LiberatoreSchaerfArbitration
from repro.engine.batched import BatchedOperator
from repro.logic.interpretation import Vocabulary
from repro.logic.semantics import ModelSet
from repro.operators.base import AssignmentOperator, TheoryChangeOperator
from repro.operators.contraction import ContractionOperator, ErasureOperator
from repro.operators.update import ForbusUpdate
from repro.orders.cache import AssignmentCache, CacheInfo
from repro.session.dispatch import AUTO, DENSE, SYMBOLIC, resolve_backend

__all__ = [
    "DEFAULT_MAX_CONTEXTS",
    "ExecutionContext",
    "ContextRegistry",
    "default_registry",
]

#: Bound on simultaneously cached execution contexts.  A dense context
#: holds its distance matrix (16 MiB at the 12-atom cap) plus bounded
#: caches; the registry bound — not the per-context caches — is the
#: memory ceiling, mirroring the BDD manager registry's design.
DEFAULT_MAX_CONTEXTS = 16


def _ranking(operator: TheoryChangeOperator) -> object:
    """What an operator's answers depend on beyond its class and name.

    An assignment operator's builder (it compares by kind, metric and
    priority; a hand-built assignment by identity) with its unsat-ψ
    policy, Forbus's metric, and for a wrapper the class and ranking of
    the operator it wraps.  ``None`` for an operator with nothing to
    configure.
    """
    if isinstance(operator, AssignmentOperator):
        return (operator.builder or operator.assignment, operator.unsat_base)
    if isinstance(operator, ForbusUpdate):
        return operator.distance
    if isinstance(operator, ArbitrationOperator):
        inner = operator.fitting
    elif isinstance(operator, LiberatoreSchaerfArbitration):
        inner = operator.revision
    elif isinstance(operator, (ContractionOperator, ErasureOperator)):
        inner = operator.base_operator
    else:
        return None
    return (type(inner).__qualname__, _ranking(inner))


def context_key(
    operator: TheoryChangeOperator, vocabulary: Vocabulary, backend: str
) -> tuple:
    """The registry key: operator *configuration*, not instance identity.

    Two freshly constructed ``DalalRevision()`` objects are the same
    configuration and must share one context (that sharing is the whole
    point of the registry); the class is part of the key so a user
    operator that happens to reuse a built-in name cannot alias it.
    The ranking (:func:`_ranking`) is part of it too, because operators
    that differ only in ``distance=`` or ``priority=``, or wrap operators
    that do, answer differently.  It hashes in constant time, and this
    key is built on every session change.
    """
    return (
        type(operator).__qualname__,
        operator.name,
        _ranking(operator),
        vocabulary,
        backend,
    )


class ExecutionContext:
    """One resolved engine for ``(operator, vocabulary, backend)``.

    Dense contexts own a shared :class:`BatchedOperator` (one distance
    matrix, bounded key/result caches); symbolic contexts execute on the
    persistent per-vocabulary BDD manager.  Either way
    :meth:`apply_model_sets` answers identically to the un-shared
    ``operator.apply_models``.
    """

    __slots__ = ("operator", "vocabulary", "backend", "_engine")

    def __init__(
        self,
        operator: TheoryChangeOperator,
        vocabulary: Vocabulary,
        backend: str,
    ):
        if backend == DENSE:
            self._engine = BatchedOperator(operator, vocabulary)
        elif backend == SYMBOLIC:
            from repro.symbolic import SymbolicOperator

            # Raises the symbolic tier's precise refusal for operators
            # without a level-walk execution.
            self._engine = SymbolicOperator(operator)
        else:
            raise ValueError(f"unresolved backend {backend!r}")
        self.operator = operator
        self.vocabulary = vocabulary
        self.backend = backend

    def apply_model_sets(self, psi: ModelSet, mu: ModelSet) -> ModelSet:
        """``Mod(ψ * μ)`` — answer-identical to
        ``operator.apply_models(psi, mu)`` on either backend."""
        if self.backend == DENSE:
            return self._engine.apply_models(psi, mu)
        from repro.logic.bdd import manager_for
        from repro.symbolic import lift_model_set

        manager = manager_for(self.vocabulary)
        result = self._engine.apply_models(
            lift_model_set(manager, psi), lift_model_set(manager, mu)
        )
        return result.to_model_set()

    def __repr__(self) -> str:
        return (
            f"<ExecutionContext {self.operator.name!r} "
            f"{self.backend} |T|={self.vocabulary.size}>"
        )


class ContextRegistry:
    """LRU-bounded resolver of shared :class:`ExecutionContext` objects.

    Thread-safe: lookups go through an :class:`AssignmentCache` (its
    builder runs outside the lock; contexts are pure configuration, so a
    rare double-build is harmless and last-write-wins).
    """

    def __init__(self, max_contexts: int = DEFAULT_MAX_CONTEXTS):
        self._cache = AssignmentCache(
            maxsize=max_contexts, name="session.contexts"
        )

    def context_for(
        self,
        operator: TheoryChangeOperator,
        vocabulary: Vocabulary,
        impl: str = AUTO,
    ) -> ExecutionContext:
        """The shared context for the resolved backend (LRU-cached)."""
        backend = resolve_backend(operator, vocabulary, impl)
        key = context_key(operator, vocabulary, backend)
        return self._cache.get_or_build(
            key, lambda _key: ExecutionContext(operator, vocabulary, backend)
        )

    def cache_info(self) -> CacheInfo:
        """Hit/miss/eviction statistics of the context LRU."""
        return self._cache.cache_info()


_default_lock = threading.Lock()
_default: Optional[ContextRegistry] = None


def default_registry() -> ContextRegistry:
    """The process-wide registry (created on first use)."""
    global _default
    with _default_lock:
        if _default is None:
            _default = ContextRegistry()
        return _default
