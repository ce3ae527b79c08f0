"""Loyal assignments (Section 3 of the paper) and concrete instances.

A *loyal assignment* maps each knowledge base ψ to a pre-order ``≤ψ`` over
ℳ such that for all interpretations ``I, J`` and knowledge bases ψ₁, ψ₂:

1. ``ψ₁ ↔ ψ₂``  implies  ``≤ψ₁ = ≤ψ₂``;
2. ``I <ψ₁ J`` and ``I ≤ψ₂ J``  imply  ``I <ψ₁∨ψ₂ J``;
3. ``I ≤ψ₁ J`` and ``I ≤ψ₂ J``  imply  ``I ≤ψ₁∨ψ₂ J``.

Theorem 3.1 characterizes the model-fitting operators (axioms A1–A8) as
exactly ``Mod(ψ ▷ μ) = Min(Mod(μ), ≤ψ)`` for loyal assignments of *total*
pre-orders.

Concrete assignments provided here:

* :func:`max_distance_assignment` — the paper's ``odist`` (max Hamming
  distance to the models of ψ).  **Reproduction note:** the paper asserts
  this is "clearly" loyal, but mechanical checking (see
  :func:`check_loyal` and the E6/E7 experiments) exhibits violations of
  condition 2 — and correspondingly of axiom A8 — when a max-tie hides a
  strict sub-preference.  Minimal counterexample, vocabulary ``{a,b,c}``:
  ψ₁ = form(∅), ψ₂ = form({a,b,c}, {b,c}), I = ∅, J = {a}; then I <ψ₁ J
  (0 < 1) and I ≤ψ₂ J (3 = 3), but odist over ψ₁∨ψ₂ ties at 3.
* :func:`sum_distance_assignment` — total distance; fails condition 2 the
  same way (take Mod(ψ₁) ⊆ Mod(ψ₂): the union discards ψ₁'s strictness).
* :func:`leximax_distance_assignment` — GMax refinement of odist; closer,
  but still not loyal in general (the union merges *sets*, not multisets).
* :func:`priority_distance_assignment` — distances to the models of ψ read
  as a vector in a fixed global priority order and compared
  lexicographically.  This assignment **is** loyal (the first differing
  coordinate of the union vector is the first differing coordinate of one
  of the operands, and both operands weakly favor the same side), so by
  Theorem 3.1 it induces a genuine A1–A8 model-fitting operator.  The
  library ships it as the corrected existence witness for the theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, ClassVar, Iterable, Optional, Sequence

from repro.distances import kernels
from repro.distances.base import HammingDistance, InterpretationDistance
from repro.logic.interpretation import Vocabulary, iter_set_bits
from repro.logic.semantics import ModelSet
from repro.orders.cache import Assignment
from repro.orders.preorder import TotalPreorder

__all__ = [
    "LoyalAssignment",
    "bitmask_priority",
    "max_distance_assignment",
    "sum_distance_assignment",
    "leximax_distance_assignment",
    "priority_distance_assignment",
    "LoyaltyViolation",
    "check_loyal",
    "check_loyal_exhaustive",
]


#: Loyal assignments share the one memoized implementation; the name
#: keeps the paper's vocabulary in signatures.
LoyalAssignment = Assignment


def bitmask_priority(mask: int) -> int:
    """The default global priority on interpretations: bitmask order."""
    return mask


#: Row aggregators per order kind (the audit engine's batched evaluator
#: looks builders up here by their ``kind`` attribute and applies the same
#: aggregator to slices of a shared full-pairwise distance matrix).
KIND_AGGREGATORS: dict[str, Callable[[object], list]] = {
    "max": kernels.max_keys,
    "min": kernels.min_keys,
    "sum": kernels.sum_keys,
    "leximax": kernels.leximax_keys,
    "row": kernels.row_keys,
}


@dataclass(frozen=True)
class _ConstantKeys:
    """Batch key function of the all-equivalent order (unsatisfiable ψ;
    axiom A2 short-circuits before Min, so only the shape matters)."""

    key: object

    def __call__(self, masks: Sequence[int]) -> list:
        return [self.key] * len(masks)


@dataclass(frozen=True)
class KernelBatchKeys:
    """Batch key function: distance matrix over the requested masks only,
    aggregated per row with the kernel aggregator for ``kind``."""

    kb_masks: tuple[int, ...]
    vocabulary: Vocabulary
    metric: InterpretationDistance
    kind: str

    def __call__(self, masks: Sequence[int]) -> list:
        return KIND_AGGREGATORS[self.kind](
            kernels.distance_matrix(masks, self.kb_masks, self.vocabulary, self.metric)
        )


@dataclass(frozen=True, repr=False)
class DistanceOrderBuilder:
    """A picklable ψ ↦ ≤ψ builder aggregating distances to Mod(ψ).

    ``kind`` names the row aggregation (see :data:`KIND_AGGREGATORS`) and
    doubles as the batching contract consumed by the audit engine:
    a builder of kind ``k`` ranks mask ``I`` by ``agg_k`` of the distance
    row from ``I`` to the knowledge base's models, listed in
    :meth:`ordered_models` order.

    Builders compare by value (class, metric, priority), so two
    operators built the same way are one configuration.
    """

    metric: InterpretationDistance

    #: The aggregation kind; subclasses override.
    kind: ClassVar[str] = "max"
    #: Key of the all-equivalent order used for the unsatisfiable ψ.
    empty_key: ClassVar[object] = 0

    def ordered_models(self, knowledge_base: ModelSet) -> tuple[int, ...]:
        """The distance-row columns, in the order the key reads them."""
        return knowledge_base.masks

    def __call__(self, knowledge_base: ModelSet) -> TotalPreorder:
        vocabulary = knowledge_base.vocabulary
        if knowledge_base.is_empty:
            return TotalPreorder.lazy(vocabulary, _ConstantKeys(self.empty_key))
        columns = self.ordered_models(knowledge_base)
        return TotalPreorder.lazy(
            vocabulary,
            KernelBatchKeys(columns, vocabulary, self.metric, self.kind),
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(kind={self.kind!r}, metric={self.metric!r})"


class MaxDistanceBuilder(DistanceOrderBuilder):
    """The paper's ``odist`` key: maximum distance to any model of ψ."""

    kind = "max"


class SumDistanceBuilder(DistanceOrderBuilder):
    """Total-distance key (unit-weight ``wdist``)."""

    kind = "sum"


class LeximaxDistanceBuilder(DistanceOrderBuilder):
    """GMax key: the distance multiset sorted descending."""

    kind = "leximax"
    empty_key = ()


@dataclass(frozen=True, repr=False)
class PriorityDistanceBuilder(DistanceOrderBuilder):
    """Priority-lexicographic key: the distance vector to Mod(ψ) read in a
    fixed global priority order."""

    rank: Callable[[int], int] = bitmask_priority

    kind = "row"
    empty_key = ()

    def ordered_models(self, knowledge_base: ModelSet) -> tuple[int, ...]:
        return tuple(sorted(knowledge_base.masks, key=self.rank))


def max_distance_assignment(
    distance: Optional[InterpretationDistance] = None,
) -> LoyalAssignment:
    """The paper's ``odist`` ordering: ``I ≤ψ J iff max-dist(ψ,I) ≤
    max-dist(ψ,J)``.  See the module docstring for its known loyalty
    defect."""
    metric = distance if distance is not None else HammingDistance()
    return LoyalAssignment(MaxDistanceBuilder(metric), name="odist(max)")


def sum_distance_assignment(
    distance: Optional[InterpretationDistance] = None,
) -> LoyalAssignment:
    """Total-distance ordering (unit-weight ``wdist`` read back onto
    regular knowledge bases)."""
    metric = distance if distance is not None else HammingDistance()
    return LoyalAssignment(SumDistanceBuilder(metric), name="sumdist")


def leximax_distance_assignment(
    distance: Optional[InterpretationDistance] = None,
) -> LoyalAssignment:
    """GMax ordering: distance multiset sorted descending, lexicographic."""
    metric = distance if distance is not None else HammingDistance()
    return LoyalAssignment(LeximaxDistanceBuilder(metric), name="leximax")


def priority_distance_assignment(
    distance: Optional[InterpretationDistance] = None,
    priority: Optional[Callable[[int], int]] = None,
) -> LoyalAssignment:
    """The corrected, provably loyal assignment.

    Fix a global priority order on interpretations (by default the bitmask
    order).  For a knowledge base ψ list its models ``m₁ < m₂ < …`` in
    priority order and read the candidate's distances as the vector
    ``(dist(I, m₁), dist(I, m₂), …)``; compare vectors lexicographically.

    Loyalty argument: the vector for ψ₁ ∨ ψ₂ interleaves the coordinates of
    the operand vectors (shared models appear once).  The first coordinate
    where two candidates differ under the union is also the first differing
    coordinate of whichever operand contains that model — and loyalty's
    premises say each operand's first difference (if any) favors the same
    candidate.  Hence conditions 2 and 3 hold; condition 1 holds because
    the construction only reads ``Mod(ψ)``.
    """
    metric = distance if distance is not None else HammingDistance()
    rank = priority if priority is not None else bitmask_priority
    return LoyalAssignment(PriorityDistanceBuilder(metric, rank), name="priority-lex")


@dataclass(frozen=True)
class LoyaltyViolation:
    """A witnessed failure of loyalty condition 2 or 3.

    Attributes name the knowledge bases (as model sets), the pair of
    interpretations, and which condition broke.
    """

    condition: int
    kb1: ModelSet
    kb2: ModelSet
    left_mask: int
    right_mask: int

    def describe(self) -> str:
        """Human-readable account of the violation."""
        vocabulary = self.kb1.vocabulary
        left = vocabulary.from_mask(self.left_mask)
        right = vocabulary.from_mask(self.right_mask)
        relation = "<" if self.condition == 2 else "≤"
        return (
            f"condition ({self.condition}) fails: I={left!r}, J={right!r}, "
            f"Mod(ψ₁)={self.kb1!r}, Mod(ψ₂)={self.kb2!r}: premises hold but "
            f"not I {relation} J under ψ₁∨ψ₂"
        )


def _violations_for_pair(
    assignment: LoyalAssignment, kb1: ModelSet, kb2: ModelSet
) -> Iterable[LoyaltyViolation]:
    order1 = assignment.order_for(kb1)
    order2 = assignment.order_for(kb2)
    union = assignment.order_for(kb1.union(kb2))
    total = kb1.vocabulary.interpretation_count
    for left in range(total):
        for right in range(total):
            if left == right:
                continue
            leq1 = order1.leq_masks(left, right)
            leq2 = order2.leq_masks(left, right)
            if not (leq1 and leq2):
                continue
            lt1 = order1.lt_masks(left, right)
            lt2 = order2.lt_masks(left, right)
            if (lt1 or lt2) and not union.lt_masks(left, right):
                yield LoyaltyViolation(2, kb1, kb2, left, right)
            elif not union.leq_masks(left, right):
                yield LoyaltyViolation(3, kb1, kb2, left, right)


def check_loyal(
    assignment: LoyalAssignment,
    knowledge_bases: Sequence[ModelSet],
) -> Optional[LoyaltyViolation]:
    """Check loyalty conditions 2–3 over all pairs from ``knowledge_bases``.

    Condition 1 holds by construction.  Returns the first violation found,
    or ``None`` if the assignment is loyal on this sample.
    """
    for kb1, kb2 in combinations(knowledge_bases, 2):
        for violation in _violations_for_pair(assignment, kb1, kb2):
            return violation
    for kb in knowledge_bases:
        # ψ₁ = ψ₂ is a legal instantiation of the conditions too.
        for violation in _violations_for_pair(assignment, kb, kb):
            return violation
    return None


def check_loyal_exhaustive(
    assignment: LoyalAssignment,
    vocabulary: Vocabulary,
    include_empty: bool = False,
) -> Optional[LoyaltyViolation]:
    """Check loyalty over *every* knowledge base of the vocabulary.

    Exponential in 2^|𝒯| — intended for |𝒯| ≤ 3 in tests.  ``include_empty``
    adds the unsatisfiable knowledge base to the sample (the paper's
    conditions quantify over knowledge bases generally; operators
    special-case unsatisfiability via axiom A2, so the default leaves it
    out).
    """
    subsets: list[ModelSet] = []
    total = vocabulary.interpretation_count
    for bits in range(1 << total):
        if bits == 0 and not include_empty:
            continue
        subsets.append(ModelSet(vocabulary, iter_set_bits(bits)))
    return check_loyal(assignment, subsets)
