"""Batched operator evaluation over a shared pairwise distance matrix.

The legacy audit path re-derives distances from scratch inside every
``check_instance``: each ``apply_models`` builds (or fetches) a pre-order
whose keys call a distance kernel on the scenario's ψ.  Across thousands
of scenarios over one small vocabulary that work overlaps almost totally —
there are only ``2^|𝒯|`` interpretations, so *every* distance any scenario
can ask for lives in one ``2^|𝒯| × 2^|𝒯|`` matrix.

:class:`BatchedOperator` wraps a theory-change operator for the audit
engine:

* assignment operators whose builder publishes its batching contract
  (``kind`` naming a :data:`~repro.orders.loyal.KIND_AGGREGATORS`
  aggregator plus a ``metric``) are evaluated against the shared matrix —
  one aggregator pass per distinct ψ yields the key of every
  interpretation at once, memoized in a bounded
  :class:`~repro.orders.cache.AssignmentCache`;
* any other operator is delegated to, with results memoized per
  ``(ψ, μ)`` bit-pair.

Knowledge bases are handled as plain ints (bit ``m`` set ⇔ interpretation
mask ``m`` is a model), so workers never pay ``ModelSet`` construction in
the hot loop.  Exactness: the fast path reuses the very kernels and
aggregators the legacy pre-orders call (see the exactness contract in
:mod:`repro.distances.kernels`), replicates the assignment operators'
unsatisfiable-ψ branch, and selects minima with the same
ascending-mask/first-best-tie scan as ``TotalPreorder.minimal`` — so its
results are identical to the legacy path, not merely equivalent.
"""

from __future__ import annotations

from typing import Optional

try:  # pragma: no cover - numpy is baked into the container
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

from repro.distances import kernels
from repro.logic.bitsets import bits_of_model_set, model_set_of_bits
from repro.logic.interpretation import Vocabulary, iter_set_bits
from repro.logic.semantics import ModelSet
from repro.operators.base import AssignmentOperator, TheoryChangeOperator
from repro.orders.cache import AssignmentCache, CacheInfo
from repro.orders.loyal import KIND_AGGREGATORS

__all__ = [
    "BatchedOperator",
    "MAX_BATCH_ATOMS",
    "batching_contract",
    "bits_of_model_set",
    "model_set_of_bits",
]

#: Largest vocabulary for which the full pairwise distance matrix is
#: precomputed (2^12 × 2^12 uint8 ≈ 16 MiB).  Bigger vocabularies fall
#: back to delegation with result memoization.
MAX_BATCH_ATOMS = 12

#: Bound on memoized per-ψ key vectors per operator.
KEY_CACHE_SIZE = 1024

#: Bound on memoized (ψ, μ) → result entries per operator.
RESULT_CACHE_SIZE = 4096


def batching_contract(operator: TheoryChangeOperator, vocabulary: Vocabulary):
    """The operator's matrix-batching contract, or ``None``.

    Returns ``(builder, kind, metric)`` exactly when
    :class:`BatchedOperator` would take the shared-matrix fast path —
    the single eligibility definition shared with the arena publisher
    (:mod:`repro.engine.shm` callers), so the parent builds matrices for
    precisely the operators whose workers would otherwise rebuild them.
    """
    if not (
        isinstance(operator, AssignmentOperator)
        and vocabulary.size <= MAX_BATCH_ATOMS
    ):
        return None
    builder = operator.builder
    kind = getattr(builder, "kind", None)
    metric = getattr(builder, "metric", None)
    if kind in KIND_AGGREGATORS and metric is not None:
        return builder, kind, metric
    return None


class BatchedOperator(TheoryChangeOperator):
    """An audit-engine view of an operator: bit-level, memoized, and —
    when the operator's assignment cooperates — matrix-batched."""

    def __init__(
        self,
        operator: TheoryChangeOperator,
        vocabulary: Vocabulary,
        key_cache_size: Optional[int] = None,
        result_cache_size: Optional[int] = RESULT_CACHE_SIZE,
        shared_matrix=None,
    ):
        self._inner = operator
        self._vocabulary = vocabulary
        self.name = operator.name
        self.family = operator.family
        self._keys = AssignmentCache(
            maxsize=KEY_CACHE_SIZE if key_cache_size is None else key_cache_size,
            name="engine.keys",
        )
        self._results = AssignmentCache(maxsize=result_cache_size, name="engine.results")
        self._builder = None
        self._kind = None
        self._unsat_base = None
        self._matrix = None
        self._matrix_shared = False
        contract = batching_contract(operator, vocabulary)
        if contract is not None:
            builder, kind, metric = contract
            self._builder = builder
            self._kind = kind
            self._unsat_base = operator.unsat_base
            count = vocabulary.interpretation_count
            if (
                shared_matrix is not None
                and np is not None
                and getattr(shared_matrix, "shape", None) == (count, count)
            ):
                # Zero-copy path: an arena published this exact matrix;
                # mapping it is bit-identical to rebuilding it (the
                # publisher built it with the same kernel call below).
                self._matrix = shared_matrix
                self._matrix_shared = True
            else:
                all_masks = tuple(range(count))
                self._matrix = kernels.distance_matrix(
                    all_masks, all_masks, vocabulary, metric
                )

    # -- introspection ---------------------------------------------------------

    @property
    def inner(self) -> TheoryChangeOperator:
        """The wrapped operator."""
        return self._inner

    @property
    def vocabulary(self) -> Vocabulary:
        """The vocabulary the shared distance matrix ranges over."""
        return self._vocabulary

    @property
    def batched(self) -> bool:
        """True iff the matrix fast path is active (vs. pure delegation)."""
        return self._builder is not None

    @property
    def matrix(self):
        """The pairwise distance matrix (``None`` when not batched)."""
        return self._matrix

    @property
    def matrix_shared(self) -> bool:
        """True iff the matrix is a mapped arena view, not a local build."""
        return self._matrix_shared

    @property
    def unsat_base(self) -> Optional[str]:
        """The wrapped operator's unsatisfiable-ψ convention (batched only)."""
        return self._unsat_base

    def cache_info(self) -> dict[str, CacheInfo]:
        """Statistics of the per-ψ key cache and the (ψ, μ) result cache."""
        return {"keys": self._keys.cache_info(), "results": self._results.cache_info()}

    # -- bit-level evaluation ---------------------------------------------------

    def _keys_for(self, psi_bits: int):
        """Order keys of *every* interpretation under ≤ψ, from the shared
        matrix: one column slice + one aggregator pass."""
        psi = model_set_of_bits(self._vocabulary, psi_bits)
        columns = self._builder.ordered_models(psi)
        if np is not None and isinstance(self._matrix, np.ndarray):
            sub = self._matrix[:, list(columns)]
        else:
            sub = [[row[c] for c in columns] for row in self._matrix]
        return KIND_AGGREGATORS[self._kind](sub)

    def keys_for_bits(self, psi_bits: int):
        """The memoized per-ψ key vector (index = interpretation mask).

        Public so the arena publisher's vectorized apply-table prefill
        (:func:`repro.engine.bitops.full_apply_table`) ranks the exact
        keys the scalar scan below compares.
        """
        return self._keys.get_or_build(psi_bits, self._keys_for)

    def _compute_bits(self, pair: tuple[int, int]) -> int:
        psi_bits, mu_bits = pair
        if self._builder is not None:
            # Mirror AssignmentOperator.apply_models exactly, including
            # the family-dependent unsatisfiable-ψ branch.
            if psi_bits == 0:
                return 0 if self._unsat_base == "empty" else mu_bits
            if mu_bits == 0:
                return 0
            keys = self.keys_for_bits(psi_bits)
            best = None
            chosen = 0
            for mask in iter_set_bits(mu_bits):
                key = keys[mask]
                if best is None or key < best:
                    best = key
                    chosen = 1 << mask
                elif key == best:
                    chosen |= 1 << mask
            return chosen
        result = self._inner.apply_models(
            model_set_of_bits(self._vocabulary, psi_bits),
            model_set_of_bits(self._vocabulary, mu_bits),
        )
        return bits_of_model_set(result)

    def apply_bits(self, psi_bits: int, mu_bits: int) -> int:
        """``Mod(ψ * μ)`` on packed knowledge-base bit-vectors."""
        return self._results.get_or_build((psi_bits, mu_bits), self._compute_bits)

    # -- TheoryChangeOperator interface ----------------------------------------

    def apply_models(self, psi: ModelSet, mu: ModelSet) -> ModelSet:
        self._check_vocabularies(psi, mu)
        bits = self.apply_bits(bits_of_model_set(psi), bits_of_model_set(mu))
        return model_set_of_bits(psi.vocabulary, bits)
