"""Weighted knowledge bases and weighted model-fitting (Section 4).

A *weighted knowledge base* ψ̃ is a function from interpretations to
non-negative reals — the relative importance of each interpretation.  The
paper defines:

* ``Mod(ψ̃ ∨ φ̃) = Mod(ψ̃) ⊔ Mod(φ̃)`` — pointwise **sum** of weights;
* ``Mod(ψ̃ ∧ φ̃) = Mod(ψ̃) ⊓ Mod(φ̃)`` — pointwise **minimum**;
* ψ̃ unsatisfiable iff every weight is 0; ψ̃ → φ̃ iff pointwise ≤;
* ``Min(Mod(μ̃), ≤ψ̃)`` keeps μ̃'s weights on the ≤ψ̃-minimal support models
  and zeroes everything else;
* the concrete order ``wdist(ψ̃, I) = Σ_J dist(I, J) · ψ̃(J)``.

The regular-KB embedding (weight 1 on models, 0 elsewhere) connects the two
sections — but note it is **not** a ∨-homomorphism: regular disjunction
unions model sets (duplicates collapse) while ⊔ adds weights (duplicates
count twice).  This is precisely why the weighted ``wdist`` assignment is
genuinely loyal (sums are additive under ⊔) even though the unweighted
``sumdist`` assignment is not; the test suite demonstrates both halves.

Two storage backends share one value semantics:

* the **exact** backend stores weights sparsely as
  :class:`fractions.Fraction` (the canonical identity — hashing, equality,
  and every accessor read it);
* the **dense** backend mirrors the Boolean engine's mask-indexed layout: a
  read-only float64 vector over all ``2^|𝒯|`` masks (:meth:`dense`), making
  ⊔/⊓/→ pointwise array ops and ``wdist`` a matrix–vector product.

Every connective takes ``impl="auto" | "numpy" | "python"``, mirroring the
kernel dispatch in :mod:`repro.distances.kernels`: ``python`` is the exact
Fraction reference, ``numpy`` forces the dense float path, and ``auto``
uses the dense path only when it is *provably exact* — all weights are
integers whose total stays below 2^53, where IEEE double arithmetic on
integers is lossless (the audit samplers and the paper's examples only
ever produce small integer weights, so audits ride the fast path without
giving up bit-exactness).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable, Mapping, Optional, Sequence, Union

try:  # pragma: no cover - numpy is baked into the container
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

from repro.distances import kernels
from repro.distances.base import (
    DrasticDistance,
    HammingDistance,
    InterpretationDistance,
)
from repro.errors import VocabularyError, WeightError
from repro.logic.enumeration import models
from repro.logic.interpretation import Interpretation, Vocabulary
from repro.logic.semantics import ModelSet
from repro.logic.syntax import Formula
from repro.orders.cache import DEFAULT_CACHE_SIZE, Assignment, CacheInfo
from repro.orders.preorder import TotalPreorder

__all__ = [
    "DENSE_EXACT_LIMIT",
    "WeightedKnowledgeBase",
    "WeightedLoyalAssignment",
    "WdistOrderBuilder",
    "wdist_assignment",
    "WeightedModelFitting",
    "WeightedArbitration",
    "WeightedLoyaltyViolation",
    "check_weighted_loyal",
]

Weight = Union[int, float, Fraction]

#: Integer totals below this bound survive float64 round trips exactly
#: (doubles represent every integer up to 2^53), so the dense backend is
#: bit-equivalent to the Fraction reference under ``impl="auto"``.
DENSE_EXACT_LIMIT = 2**53


def _to_fraction(value: Weight) -> Fraction:
    if isinstance(value, Fraction):
        result = value
    elif isinstance(value, int):
        result = Fraction(value)
    elif isinstance(value, float):
        result = Fraction(value).limit_denominator(10**12)
    else:
        raise WeightError(f"weight must be numeric, got {type(value).__name__}")
    if result < 0:
        raise WeightError(f"weights must be non-negative, got {value}")
    return result


def _resolve_impl(impl: str) -> str:
    if impl not in ("auto", "numpy", "python"):
        raise ValueError(f"unknown weighted impl {impl!r}")
    if impl == "numpy" and np is None:
        raise RuntimeError("numpy backend requested but numpy is not installed")
    return impl


def _integer_metric(metric: InterpretationDistance) -> bool:
    return isinstance(metric, (HammingDistance, DrasticDistance))


class WeightedKnowledgeBase:
    """A total function from interpretations to non-negative weights.

    Canonically stored sparsely (absent interpretations weigh 0) as exact
    :class:`~fractions.Fraction` values; a dense float64 mask-indexed
    vector (:meth:`dense`) is derived lazily and cached for the vectorized
    paths.  Immutable and hashable; supports the paper's ⊔ (``|``) and ⊓
    (``&``).

    >>> v = Vocabulary(["s", "d", "q"])
    >>> kb = WeightedKnowledgeBase.from_weights(v, {
    ...     v.interpretation({"s"}): 10,
    ...     v.interpretation({"d"}): 20,
    ... })
    >>> kb.weight(v.interpretation({"d"}))
    Fraction(20, 1)
    >>> kb.weight(v.interpretation({"q"}))
    Fraction(0, 1)
    """

    __slots__ = ("_vocabulary", "_weights", "_hash", "_int_total", "_dense")

    def __init__(self, vocabulary: Vocabulary, mask_weights: Mapping[int, Weight]):
        cleaned: dict[int, Fraction] = {}
        limit = vocabulary.interpretation_count
        int_total: Optional[int] = 0
        for mask, raw in mask_weights.items():
            if mask < 0 or mask >= limit:
                raise VocabularyError(
                    f"mask {mask} out of range for vocabulary of size {vocabulary.size}"
                )
            weight = _to_fraction(raw)
            if weight > 0:
                cleaned[mask] = weight
                if int_total is not None:
                    if weight.denominator == 1:
                        int_total += weight.numerator
                    else:
                        int_total = None
        self._vocabulary = vocabulary
        self._weights = cleaned
        self._hash = hash((vocabulary, frozenset(cleaned.items())))
        self._int_total = int_total
        self._dense = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_weights(
        cls,
        vocabulary: Vocabulary,
        weights: Mapping[Interpretation, Weight],
    ) -> "WeightedKnowledgeBase":
        """Build from an ``Interpretation -> weight`` mapping."""
        mask_weights: dict[int, Weight] = {}
        for interpretation, weight in weights.items():
            if interpretation.vocabulary != vocabulary:
                raise VocabularyError(
                    "interpretation vocabulary differs from the knowledge base's"
                )
            mask_weights[interpretation.mask] = weight
        return cls(vocabulary, mask_weights)

    @classmethod
    def from_model_set(
        cls, model_set: ModelSet, weight: Weight = 1
    ) -> "WeightedKnowledgeBase":
        """The paper's embedding of a regular knowledge base:
        ``ψ̃(I) = weight`` on models, 0 elsewhere."""
        return cls(
            model_set.vocabulary, {mask: weight for mask in model_set.masks}
        )

    @classmethod
    def from_formula(
        cls,
        formula: Formula,
        vocabulary: Optional[Vocabulary] = None,
        weight: Weight = 1,
        engine=None,
    ) -> "WeightedKnowledgeBase":
        """Embed a formula via its model set."""
        if vocabulary is None:
            vocabulary = Vocabulary.from_formulas(formula)
        return cls.from_model_set(models(formula, vocabulary, engine), weight)

    @classmethod
    def uniform(
        cls, vocabulary: Vocabulary, weight: Weight = 1
    ) -> "WeightedKnowledgeBase":
        """The paper's ℳ̃: every interpretation with the same weight."""
        return cls(
            vocabulary,
            {mask: weight for mask in range(vocabulary.interpretation_count)},
        )

    @classmethod
    def zero(cls, vocabulary: Vocabulary) -> "WeightedKnowledgeBase":
        """The unsatisfiable weighted knowledge base (all weights 0)."""
        return cls(vocabulary, {})

    @classmethod
    def from_dense(
        cls, vocabulary: Vocabulary, vector: Sequence[float]
    ) -> "WeightedKnowledgeBase":
        """Build from a mask-indexed weight vector of length ``2^|𝒯|``.

        Float entries convert to *exact* binary fractions (no denominator
        limiting): a round trip ``kb.dense() -> from_dense`` is the
        identity whenever the weights are float-representable, which is
        what the dense connective paths rely on.
        """
        values = vector.tolist() if np is not None and isinstance(
            vector, np.ndarray
        ) else list(vector)
        if len(values) != vocabulary.interpretation_count:
            raise VocabularyError(
                f"dense vector of length {len(values)} does not cover the "
                f"{vocabulary.interpretation_count} interpretations of a "
                f"vocabulary of size {vocabulary.size}"
            )
        mask_weights: dict[int, Fraction] = {}
        for mask, value in enumerate(values):
            if value < 0:
                raise WeightError(f"weights must be non-negative, got {value}")
            if value > 0:
                mask_weights[mask] = Fraction(value)
        return cls(vocabulary, mask_weights)

    # -- accessors ---------------------------------------------------------------

    @property
    def vocabulary(self) -> Vocabulary:
        """The interpretation space the weight function is defined over."""
        return self._vocabulary

    def weight_of_mask(self, mask: int) -> Fraction:
        """Weight of the interpretation with the given bitmask."""
        if mask < 0 or mask >= self._vocabulary.interpretation_count:
            raise VocabularyError(
                f"mask {mask} out of range for vocabulary of size "
                f"{self._vocabulary.size}"
            )
        return self._weights.get(mask, Fraction(0))

    def weight(self, interpretation: Interpretation) -> Fraction:
        """Weight of an interpretation (0 if unmentioned)."""
        if interpretation.vocabulary != self._vocabulary:
            raise VocabularyError(
                "interpretation vocabulary differs from the knowledge base's"
            )
        return self.weight_of_mask(interpretation.mask)

    def support(self) -> ModelSet:
        """The interpretations with strictly positive weight (the paper's
        ``S = {I : μ(I) > 0}``)."""
        return ModelSet(self._vocabulary, self._weights.keys())

    def items(self) -> Iterable[tuple[Interpretation, Fraction]]:
        """Positive-weight entries in deterministic (mask) order."""
        for mask in sorted(self._weights):
            yield Interpretation(self._vocabulary, mask), self._weights[mask]

    def total_weight(self) -> Fraction:
        """Sum of all weights (useful for normalization in applications)."""
        return sum(self._weights.values(), Fraction(0))

    @property
    def is_satisfiable(self) -> bool:
        """True iff some interpretation has positive weight."""
        return bool(self._weights)

    # -- dense backend -----------------------------------------------------------

    def dense(self):
        """The mask-indexed float64 weight vector (read-only, cached).

        Index ``m`` holds ``float(ψ̃(I_m))`` for the interpretation with
        bitmask ``m``; zero-weight masks are zero entries.  This is the
        same layout the Boolean engine uses for its shared distance
        matrices, so ``wdist`` over every interpretation is one
        matrix–vector product.  Requires numpy.
        """
        if np is None:
            raise RuntimeError("dense weight vectors require numpy")
        if self._dense is None:
            array = np.zeros(self._vocabulary.interpretation_count, dtype=np.float64)
            for mask, weight in self._weights.items():
                array[mask] = float(weight)
            array.flags.writeable = False
            self._dense = array
        return self._dense

    @property
    def dense_exact(self) -> bool:
        """True iff the dense float64 backend is provably lossless for
        this knowledge base: every weight is an integer and the total
        stays below :data:`DENSE_EXACT_LIMIT` (so no pointwise sum of two
        such bases can round)."""
        return (
            np is not None
            and self._int_total is not None
            and self._int_total < DENSE_EXACT_LIMIT
        )

    def _use_dense(self, impl: str, *others: "WeightedKnowledgeBase") -> bool:
        resolved = _resolve_impl(impl)
        if resolved == "numpy":
            return True
        if resolved == "python":
            return False
        return self.dense_exact and all(other.dense_exact for other in others)

    # -- the paper's weighted connectives ----------------------------------------

    def _check(self, other: "WeightedKnowledgeBase") -> None:
        if self._vocabulary != other._vocabulary:
            raise VocabularyError(
                "weighted knowledge bases are over different vocabularies"
            )

    def join(
        self, other: "WeightedKnowledgeBase", impl: str = "auto"
    ) -> "WeightedKnowledgeBase":
        """``⊔``: pointwise sum of weights (the semantics of ∨)."""
        self._check(other)
        use_dense = self._use_dense(impl, other)
        if use_dense and _resolve_impl(impl) == "auto":
            # Pointwise sums are bounded by the summed totals; both totals
            # are integers here (dense_exact), so this keeps every entry
            # of the sum inside the float64-exact integer range.
            use_dense = (
                self._int_total is not None
                and other._int_total is not None
                and self._int_total + other._int_total < DENSE_EXACT_LIMIT
            )
        if use_dense:
            return WeightedKnowledgeBase.from_dense(
                self._vocabulary, self.dense() + other.dense()
            )
        combined = dict(self._weights)
        for mask, weight in other._weights.items():
            combined[mask] = combined.get(mask, Fraction(0)) + weight
        return WeightedKnowledgeBase(self._vocabulary, combined)

    def meet(
        self, other: "WeightedKnowledgeBase", impl: str = "auto"
    ) -> "WeightedKnowledgeBase":
        """``⊓``: pointwise minimum of weights (the semantics of ∧)."""
        self._check(other)
        if self._use_dense(impl, other):
            return WeightedKnowledgeBase.from_dense(
                self._vocabulary, np.minimum(self.dense(), other.dense())
            )
        combined: dict[int, Fraction] = {}
        for mask, weight in self._weights.items():
            other_weight = other._weights.get(mask)
            if other_weight is not None:
                combined[mask] = min(weight, other_weight)
        return WeightedKnowledgeBase(self._vocabulary, combined)

    __or__ = join
    __and__ = meet

    def scaled(self, factor: Weight, impl: str = "auto") -> "WeightedKnowledgeBase":
        """Every weight multiplied by a non-negative factor."""
        multiplier = _to_fraction(factor)
        if self._use_dense(impl) and (
            _resolve_impl(impl) == "numpy"
            or (
                multiplier.denominator == 1
                and self._int_total is not None
                and self._int_total * multiplier.numerator < DENSE_EXACT_LIMIT
            )
        ):
            return WeightedKnowledgeBase.from_dense(
                self._vocabulary, self.dense() * float(multiplier)
            )
        return WeightedKnowledgeBase(
            self._vocabulary,
            {mask: weight * multiplier for mask, weight in self._weights.items()},
        )

    def implies(self, other: "WeightedKnowledgeBase", impl: str = "auto") -> bool:
        """The paper's ``ψ̃ → φ̃``: pointwise ``ψ̃(I) ≤ φ̃(I)``."""
        self._check(other)
        if self._use_dense(impl, other):
            return bool(np.all(self.dense() <= other.dense()))
        return all(
            weight <= other._weights.get(mask, Fraction(0))
            for mask, weight in self._weights.items()
        )

    def equivalent(self, other: "WeightedKnowledgeBase") -> bool:
        """Mutual implication — equal weight functions."""
        self._check(other)
        return self._weights == other._weights

    # -- distance ---------------------------------------------------------------

    def wdist(
        self,
        interpretation: Interpretation,
        distance: Optional[InterpretationDistance] = None,
        impl: str = "auto",
    ) -> Fraction:
        """The paper's ``wdist(ψ̃, I) = Σ_J dist(I, J) · ψ̃(J)``.

        The dense path computes one distance-row · weight-vector dot
        product; ``auto`` takes it only when it is exact (integer weights
        under an integer metric, within :data:`DENSE_EXACT_LIMIT`), so the
        returned :class:`~fractions.Fraction` matches the reference sum
        bit for bit.
        """
        if interpretation.vocabulary != self._vocabulary:
            raise VocabularyError(
                "interpretation vocabulary differs from the knowledge base's"
            )
        metric = distance if distance is not None else HammingDistance()
        resolved = _resolve_impl(impl)
        use_dense = resolved == "numpy" or (
            resolved == "auto"
            and self.dense_exact
            and _integer_metric(metric)
            and self._int_total is not None
            and self._int_total * max(1, self._vocabulary.size) < DENSE_EXACT_LIMIT
        )
        if use_dense:
            return Fraction(float(self.wdist_dense(metric)[interpretation.mask]))
        total = Fraction(0)
        for mask, weight in self._weights.items():
            total += (
                Fraction(metric.between_masks(interpretation.mask, mask, self._vocabulary))
                * weight
            )
        return total

    def wdist_dense(
        self, distance: Optional[InterpretationDistance] = None
    ):
        """``wdist(ψ̃, I)`` for *every* mask at once, as a float64 vector:
        the full pairwise distance matrix times :meth:`dense`.

        This is the matvec the audit engine batches over; it is exact
        whenever :attr:`dense_exact` holds and the metric is
        integer-valued.  Requires numpy.
        """
        if np is None:
            raise RuntimeError("dense wdist requires numpy")
        metric = distance if distance is not None else HammingDistance()
        all_masks = range(self._vocabulary.interpretation_count)
        matrix = np.asarray(
            kernels.distance_matrix(all_masks, all_masks, self._vocabulary, metric),
            dtype=np.float64,
        )
        return matrix @ self.dense()

    def degree_of_belief(
        self,
        formula: Formula,
        engine=None,
        impl: str = "auto",
    ) -> Fraction:
        """Normalized weight of the formula's models: the fraction of the
        knowledge base's total weight lying inside ``Mod(φ)``.

        The paper notes its weights have "only vague connection with
        probabilities" — they are unbounded — but after normalization the
        support distribution behaves like one, and this is the natural
        weighted analogue of the three-valued ``ask``: 1 means entailed by
        every positively weighted world, 0 means excluded.

        Raises :class:`~repro.errors.WeightError` on an unsatisfiable
        knowledge base (no mass to normalize).
        """
        if not self.is_satisfiable:
            raise WeightError(
                "degree of belief is undefined for an unsatisfiable "
                "weighted knowledge base"
            )
        formula_models = models(formula, self._vocabulary, engine)
        if self._use_dense(impl):
            vector = self.dense()
            inside_value = float(
                np.add.reduce(vector[list(formula_models.masks)])
            ) if formula_models.masks else 0.0
            return Fraction(inside_value) / Fraction(float(np.add.reduce(vector)))
        inside = sum(
            (
                weight
                for mask, weight in self._weights.items()
                if mask in formula_models
            ),
            Fraction(0),
        )
        return inside / self.total_weight()

    # -- value semantics -----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedKnowledgeBase):
            return NotImplemented
        return (
            self._vocabulary == other._vocabulary
            and self._weights == other._weights
        )

    def __hash__(self) -> int:
        return self._hash

    def __getstate__(self):
        # The dense cache stays home — workers rebuild it on demand, and
        # shipping read-only arrays through pickles buys nothing.
        return (self._vocabulary, self._weights)

    def __setstate__(self, state):
        vocabulary, weights = state
        self.__init__(vocabulary, weights)

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{interpretation!r}: {weight}" for interpretation, weight in self.items()
        )
        return f"WeightedKB({{{entries}}})"


#: Weighted-loyal assignments share the one memoized implementation,
#: keyed by the weight function itself (weighted loyalty condition 1).
WeightedLoyalAssignment = Assignment


@dataclass(frozen=True)
class _WdistBatchKeys:
    """Batch key function: exact ``wdist`` keys for the requested masks
    against one knowledge base's support (see
    :func:`repro.distances.kernels.wdist_keys`)."""

    support_masks: tuple[int, ...]
    weights: tuple[Fraction, ...]
    vocabulary: Vocabulary
    metric: InterpretationDistance

    def __call__(self, masks: Sequence[int]) -> list:
        return kernels.wdist_keys(
            masks, self.support_masks, self.weights, self.vocabulary, self.metric
        )


@dataclass(frozen=True)
class WdistOrderBuilder:
    """A picklable ψ̃ ↦ ≤ψ̃ builder ordering interpretations by ``wdist``.

    ``kind`` doubles as the weighted audit engine's batching contract: a
    builder of kind ``"wdist"`` ranks mask ``I`` by the dot product of
    ``I``'s distance row (under ``metric``) with the weight vector, so the
    engine may substitute one shared-matrix matvec for the per-KB lazy
    pre-order whenever that product is exact.
    """

    metric: InterpretationDistance
    vectorized: bool = True

    kind: ClassVar[str] = "wdist"

    def __call__(self, knowledge_base: WeightedKnowledgeBase) -> TotalPreorder:
        vocabulary = knowledge_base.vocabulary
        if not self.vectorized:
            metric = self.metric

            def key(mask: int) -> Fraction:
                return knowledge_base.wdist(
                    Interpretation(vocabulary, mask), metric, impl="python"
                )

            return TotalPreorder.from_key(vocabulary, key)
        support = sorted(knowledge_base._weights.items())
        return TotalPreorder.lazy(
            vocabulary,
            _WdistBatchKeys(
                tuple(mask for mask, _ in support),
                tuple(weight for _, weight in support),
                vocabulary,
                self.metric,
            ),
        )

    def __repr__(self) -> str:
        return f"WdistOrderBuilder(metric={self.metric!r}, vectorized={self.vectorized})"


def wdist_assignment(
    distance: Optional[InterpretationDistance] = None,
    vectorized: bool = True,
    cache_size: Optional[int] = DEFAULT_CACHE_SIZE,
) -> WeightedLoyalAssignment:
    """The paper's weighted assignment: order by ``wdist``.

    Genuinely loyal: under ``⊔`` weights add, so
    ``wdist(ψ̃₁ ⊔ ψ̃₂, I) = wdist(ψ̃₁, I) + wdist(ψ̃₂, I)`` exactly, and a
    strict-plus-weak premise sums to a strict conclusion.  (Contrast the
    unweighted ``sumdist`` assignment, where overlapping model sets break
    additivity.)

    Keys stay exact :class:`~fractions.Fraction` values on both paths; the
    vectorized path clears denominators into one integer dot product per
    interpretation (see :func:`repro.distances.kernels.wdist_keys`), and
    ``vectorized=False`` selects the scalar reference sum.
    """
    metric = distance if distance is not None else HammingDistance()
    return WeightedLoyalAssignment(
        WdistOrderBuilder(metric, vectorized), name="wdist", cache_size=cache_size
    )


class WeightedModelFitting:
    """The weighted model-fitting operator ``ψ̃ ▷ μ̃`` (Theorem 4.1 shape).

    ``Min(Mod(μ̃), ≤ψ̃)`` keeps μ̃'s weights on the order-minimal support
    interpretations and zeroes the rest; an unsatisfiable ψ̃ yields the zero
    function (axiom F2).
    """

    def __init__(self, assignment: Optional[WeightedLoyalAssignment] = None):
        self._assignment = assignment if assignment is not None else wdist_assignment()
        self.name = f"weighted-fitting[{self._assignment.name}]"

    @property
    def assignment(self) -> WeightedLoyalAssignment:
        """The underlying ψ̃ ↦ ≤ψ̃ assignment."""
        return self._assignment

    def cache_info(self) -> CacheInfo:
        """Statistics of the underlying assignment's pre-order cache."""
        return self._assignment.cache_info()

    def apply(
        self, psi: WeightedKnowledgeBase, mu: WeightedKnowledgeBase
    ) -> WeightedKnowledgeBase:
        """Compute ``ψ̃ ▷ μ̃``."""
        if psi.vocabulary != mu.vocabulary:
            raise VocabularyError("ψ̃ and μ̃ are over different vocabularies")
        if not psi.is_satisfiable:
            return WeightedKnowledgeBase.zero(psi.vocabulary)
        order = self._assignment.order_for(psi)
        minimal = order.minimal(mu.support())
        return WeightedKnowledgeBase(
            mu.vocabulary, {mask: mu.weight_of_mask(mask) for mask in minimal.masks}
        )

    def __repr__(self) -> str:
        return f"<WeightedModelFitting {self.name!r}>"


class WeightedArbitration:
    """Weighted arbitration: ``ψ̃ Δ φ̃ = (ψ̃ ⊔ φ̃) ▷ ℳ̃`` (Section 4).

    ℳ̃ assigns weight 1 to every interpretation; the result therefore has
    weight 1 on each consensus interpretation, matching Example 4.1.
    """

    def __init__(self, fitting: Optional[WeightedModelFitting] = None):
        self._fitting = fitting if fitting is not None else WeightedModelFitting()
        self.name = f"weighted-arbitration[{self._fitting.name}]"

    @property
    def fitting(self) -> WeightedModelFitting:
        """The underlying weighted fitting operator."""
        return self._fitting

    def apply(
        self, psi: WeightedKnowledgeBase, phi: WeightedKnowledgeBase
    ) -> WeightedKnowledgeBase:
        """Compute ``ψ̃ Δ φ̃``."""
        if psi.vocabulary != phi.vocabulary:
            raise VocabularyError("ψ̃ and φ̃ are over different vocabularies")
        universe = WeightedKnowledgeBase.uniform(psi.vocabulary)
        return self._fitting.apply(psi.join(phi), universe)

    def merge(
        self, sources: Iterable[WeightedKnowledgeBase]
    ) -> WeightedKnowledgeBase:
        """N-ary weighted consensus: ``(ψ̃₁ ⊔ … ⊔ ψ̃ₖ) ▷ ℳ̃``."""
        source_list = list(sources)
        if not source_list:
            raise VocabularyError("merge requires at least one source")
        combined = source_list[0]
        for source in source_list[1:]:
            combined = combined.join(source)
        universe = WeightedKnowledgeBase.uniform(combined.vocabulary)
        return self._fitting.apply(combined, universe)

    def __repr__(self) -> str:
        return f"<WeightedArbitration {self.name!r}>"


class WeightedLoyaltyViolation:
    """A witnessed failure of weighted loyalty condition 2 or 3."""

    def __init__(
        self,
        condition: int,
        kb1: WeightedKnowledgeBase,
        kb2: WeightedKnowledgeBase,
        left_mask: int,
        right_mask: int,
    ):
        self.condition = condition
        self.kb1 = kb1
        self.kb2 = kb2
        self.left_mask = left_mask
        self.right_mask = right_mask

    def __repr__(self) -> str:
        return (
            f"WeightedLoyaltyViolation(condition={self.condition}, "
            f"I=mask {self.left_mask}, J=mask {self.right_mask})"
        )


def check_weighted_loyal(
    assignment: WeightedLoyalAssignment,
    knowledge_bases: list[WeightedKnowledgeBase],
) -> Optional[WeightedLoyaltyViolation]:
    """Check weighted loyalty conditions 2–3 over all ordered pairs.

    Returns the first violation or ``None``.  Condition 1 holds by
    construction (assignments are keyed by the weight function).
    """
    for kb1 in knowledge_bases:
        for kb2 in knowledge_bases:
            order1 = assignment.order_for(kb1)
            order2 = assignment.order_for(kb2)
            union = assignment.order_for(kb1.join(kb2))
            total = kb1.vocabulary.interpretation_count
            for left in range(total):
                for right in range(total):
                    if left == right:
                        continue
                    if not (
                        order1.leq_masks(left, right)
                        and order2.leq_masks(left, right)
                    ):
                        continue
                    strict = order1.lt_masks(left, right) or order2.lt_masks(
                        left, right
                    )
                    if strict and not union.lt_masks(left, right):
                        return WeightedLoyaltyViolation(2, kb1, kb2, left, right)
                    if not union.leq_masks(left, right):
                        return WeightedLoyaltyViolation(3, kb1, kb2, left, right)
    return None
