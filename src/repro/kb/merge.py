"""Heterogeneous-source merging — the paper's motivating database scenario.

"Especially promising as an application area for arbitration are large
heterogeneous databases, which often require merging of large equally
important sets of information to answer queries."  (Section 1.)

A :class:`MergeSession` collects named sources (each a formula, optionally
with a vote weight), merges them by arbitration (unweighted odist fitting)
or by weighted arbitration (``wdist``), and reports per-source satisfaction
metrics: is the source's theory consistent with the consensus, and how far
is the consensus from the source's models.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from repro.core.arbitration import ArbitrationOperator
from repro.core.fitting import ModelFittingOperator
from repro.core.weighted import (
    WeightedArbitration,
    WeightedKnowledgeBase,
)
from repro.distances.base import HammingDistance
from repro.errors import VocabularyError
from repro.logic.enumeration import form_formula, models
from repro.logic.interpretation import Vocabulary
from repro.logic.parser import as_formula
from repro.logic.semantics import ModelSet
from repro.logic.syntax import Formula

__all__ = ["Source", "SourceReport", "MergeReport", "MergeSession"]

FormulaLike = Union[str, Formula]


@dataclass(frozen=True)
class Source:
    """One named, weighted information source."""

    name: str
    formula: Formula
    weight: Fraction

    def __str__(self) -> str:
        return f"{self.name} (weight {self.weight}): {self.formula}"


@dataclass(frozen=True)
class SourceReport:
    """How one source fared under the consensus."""

    source: Source
    consistent: bool
    min_distance: int
    max_distance: int

    def __str__(self) -> str:
        verdict = "consistent" if self.consistent else "OVERRIDDEN"
        return (
            f"{self.source.name}: {verdict}; consensus lies "
            f"{self.min_distance}-{self.max_distance} flips from its models"
        )


@dataclass(frozen=True)
class MergeReport:
    """The outcome of a merge: consensus plus per-source accounting."""

    method: str
    consensus_models: ModelSet
    consensus_formula: Formula
    sources: tuple[SourceReport, ...]

    @property
    def satisfied_count(self) -> int:
        """Number of sources consistent with the consensus."""
        return sum(1 for report in self.sources if report.consistent)

    def describe(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"merge[{self.method}] consensus: {self.consensus_formula}",
            f"  models: {self.consensus_models!r}",
            f"  sources satisfied: {self.satisfied_count}/{len(self.sources)}",
        ]
        lines.extend(f"  - {report}" for report in self.sources)
        return "\n".join(lines)


class MergeSession:
    """Collect equally important sources and arbitrate a consensus.

    >>> session = MergeSession(["s", "d", "q"])
    >>> session.add("alice", "s & !d & !q")
    >>> session.add("bob", "!s & d & !q")
    >>> session.add("carol", "s & d & q")
    >>> report = session.merge()
    >>> len(report.consensus_models) >= 1
    True
    """

    def __init__(self, atoms: Sequence[str]):
        self._vocabulary = Vocabulary(atoms)
        self._sources: list[Source] = []

    @property
    def vocabulary(self) -> Vocabulary:
        """The shared universe of atoms."""
        return self._vocabulary

    @property
    def sources(self) -> tuple[Source, ...]:
        """The sources added so far."""
        return tuple(self._sources)

    def add(
        self, name: str, formula: FormulaLike, weight: int | Fraction = 1
    ) -> None:
        """Register a source; ``weight`` only matters for weighted merges."""
        parsed = as_formula(formula)
        missing = parsed.atoms() - set(self._vocabulary.atoms)
        if missing:
            raise VocabularyError(
                f"source {name!r} mentions atoms outside 𝒯: {sorted(missing)}"
            )
        if any(source.name == name for source in self._sources):
            raise VocabularyError(f"duplicate source name {name!r}")
        self._sources.append(Source(name, parsed, Fraction(weight)))

    def _source_models(self) -> list[ModelSet]:
        return [
            models(source.formula, self._vocabulary) for source in self._sources
        ]

    def _report(self, method: str, consensus: ModelSet) -> MergeReport:
        metric = HammingDistance()
        reports: list[SourceReport] = []
        for source, source_models in zip(self._sources, self._source_models()):
            consistent = not consensus.intersection(source_models).is_empty
            if consensus.is_empty or source_models.is_empty:
                minimum, maximum = 0, 0
            else:
                distances = [
                    min(
                        metric.between_masks(c, s, self._vocabulary)
                        for s in source_models.masks
                    )
                    for c in consensus.masks
                ]
                minimum, maximum = min(distances), max(distances)
            reports.append(
                SourceReport(source, consistent, minimum, maximum)
            )
        return MergeReport(
            method=method,
            consensus_models=consensus,
            consensus_formula=form_formula(consensus),
            sources=tuple(reports),
        )

    def merge(
        self, fitting: Optional[ModelFittingOperator] = None
    ) -> MergeReport:
        """Unweighted arbitration: every source is one equal voice.

        Uses the paper's odist fitting unless another fitting operator is
        supplied.
        """
        if not self._sources:
            raise VocabularyError("no sources to merge")
        operator = ArbitrationOperator(fitting)
        consensus = operator.merge_models(self._source_models())
        name = "arbitration" if fitting is None else f"arbitration[{fitting.name}]"
        return self._report(name, consensus)

    def merge_weighted(self) -> MergeReport:
        """Weighted arbitration: sources vote with their weights (``wdist``).

        Each source contributes its model set with its weight; the join ⊔
        adds weights, so shared models accumulate support — the Section 4
        majority semantics (Example 4.1's classroom).
        """
        if not self._sources:
            raise VocabularyError("no sources to merge")
        weighted_sources = [
            WeightedKnowledgeBase.from_model_set(source_models, source.weight)
            for source, source_models in zip(self._sources, self._source_models())
        ]
        consensus_weighted = WeightedArbitration().merge(weighted_sources)
        return self._report("weighted-arbitration", consensus_weighted.support())
