"""Distance measures between interpretations.

Dalal's ``dist`` (Section 2 of the paper) counts the atoms on which two
interpretations disagree.  The library generalizes this to a small family
of interpretation distances so that the ablation benchmarks can swap the
metric underneath every operator:

* :class:`HammingDistance` — Dalal's ``dist`` (the paper's choice).
* :class:`WeightedHammingDistance` — per-atom weights, in the spirit of the
  proposition weights the paper attributes to Dalal [Dal88] (and explicitly
  distinguishes from the Section 4 *model* weights).
* :class:`DrasticDistance` — 0 if equal, 1 otherwise; the coarsest metric.

All distances operate on bitmasks relative to a shared vocabulary, so the
hot path is integer arithmetic.  They compare by value, so two operators
built over equal metrics are one configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol

from repro.errors import WeightError
from repro.logic.interpretation import Interpretation, Vocabulary

__all__ = [
    "InterpretationDistance",
    "HammingDistance",
    "WeightedHammingDistance",
    "DrasticDistance",
    "hamming",
]


class InterpretationDistance(Protocol):
    """A symmetric distance between interpretations of one vocabulary.

    Implementations receive *bitmasks* (see
    :class:`repro.logic.interpretation.Interpretation`) because operator
    inner loops run over raw masks for speed.
    """

    def between_masks(self, left: int, right: int, vocabulary: Vocabulary) -> float:
        """Distance between the interpretations encoded by two masks."""
        ...


def hamming(left: int, right: int) -> int:
    """Dalal's ``dist``: the number of differing atoms, as a popcount."""
    return (left ^ right).bit_count()


@dataclass(frozen=True)
class HammingDistance:
    """Dalal's distance: ``dist(I, J) = |(I \\ J) ∪ (J \\ I)|``.

    >>> from repro.logic.interpretation import Vocabulary
    >>> v = Vocabulary(["a", "b", "c", "d", "e"])
    >>> i = v.interpretation({"a", "b", "c"})
    >>> j = v.interpretation({"c", "d", "e"})
    >>> HammingDistance().between(i, j)
    4
    """

    def between_masks(self, left: int, right: int, vocabulary: Vocabulary) -> int:
        return (left ^ right).bit_count()

    def between(self, left: Interpretation, right: Interpretation) -> int:
        """Distance between two interpretation objects."""
        return left.hamming_distance(right)


class WeightedHammingDistance:
    """Hamming distance with per-atom disagreement weights.

    Atoms absent from ``weights`` default to weight 1, so the plain
    :class:`HammingDistance` is the special case of an empty mapping.
    Weights must be non-negative.
    """

    def __init__(self, weights: Mapping[str, float]):
        for name, weight in weights.items():
            if weight < 0:
                raise WeightError(
                    f"atom weight must be non-negative: {name!r} -> {weight}"
                )
        self._weights = dict(weights)
        # The value the metric compares and hashes by; a frozenset caches
        # its own hash, and rehashes after unpickling in another process.
        self._key = frozenset(self._weights.items())
        self._cache: dict[Vocabulary, tuple[float, ...]] = {}

    def weight_vector(self, vocabulary: Vocabulary) -> tuple[float, ...]:
        """Per-atom weights in vocabulary order (missing atoms weigh 1).

        The batch kernels in :mod:`repro.distances.kernels` consume this
        vector directly, so it is part of the public surface.
        """
        vector = self._cache.get(vocabulary)
        if vector is None:
            vector = tuple(
                self._weights.get(name, 1.0) for name in vocabulary.atoms
            )
            self._cache[vocabulary] = vector
        return vector

    # Backwards-compatible private alias.
    _weight_vector = weight_vector

    def between_masks(self, left: int, right: int, vocabulary: Vocabulary) -> float:
        vector = self.weight_vector(vocabulary)
        difference = left ^ right
        total = 0.0
        while difference:
            low_bit = difference & -difference
            total += vector[low_bit.bit_length() - 1]
            difference ^= low_bit
        return total

    def between(self, left: Interpretation, right: Interpretation) -> float:
        """Distance between two interpretation objects."""
        return self.between_masks(left.mask, right.mask, left.vocabulary)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedHammingDistance):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"WeightedHammingDistance({self._weights!r})"


@dataclass(frozen=True)
class DrasticDistance:
    """The drastic distance: 0 for identical interpretations, 1 otherwise.

    Under this metric every operator degenerates to coarse set behaviour
    (e.g. Dalal revision becomes "keep ψ∧μ if consistent, else all of μ"),
    which the ablation benchmark E10 uses as a baseline.
    """

    def between_masks(self, left: int, right: int, vocabulary: Vocabulary) -> int:
        return 0 if left == right else 1

    def between(self, left: Interpretation, right: Interpretation) -> int:
        """Distance between two interpretation objects."""
        return 0 if left == right else 1
