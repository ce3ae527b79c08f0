"""Online invariant checking for the soak harness.

Per-step postulate compliance does not compose across a change stream —
a knowledge base can satisfy every postulate at each step and still drift
into a state a one-shot audit would never produce.  So the soak checks
invariants *online*, step by step, and accumulates the results in an
:class:`InvariantLedger` that is part of the resumable run state: a
resumed run's ledger must equal an uninterrupted run's, so every check
here is deterministic in the stream position (no wall-clock, no sampling
outside the step schedule).

Checks, by step kind:

``revise``
    R1 success (result implies μ, intersected with the constraints when
    present) and R2 vacuity (consistent μ means plain conjunction).
``update``
    U1 success, and U2 stability (if ψ already implies μ the update is a
    no-op).
``arbitrate`` / ``merge``
    A1 well-formedness of the consensus (same vocabulary, valid masks —
    the arbitration result ranges over all of ℳ, so implication checks
    degenerate to well-formedness) and A2 consistency (the consensus is
    satisfiable iff the disjunction of the voices is).  On the spot-check
    cadence, full commutativity (``φ Δ ψ`` recomputed and compared) for
    arbitration and order-independence (reversed voices) for merges.
``all``
    Fixed-point/cycle bookkeeping over a rolling window of recent states
    via :class:`~repro.core.iterated.Trace`, and — every N steps —
    a serialize→deserialize round trip through :mod:`repro.kb.serialize`
    that must reproduce the state, history length, and constraints.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.core.arbitration import ArbitrationOperator
from repro.core.fitting import ModelFittingOperator
from repro.core.iterated import Trace
from repro.errors import ReproError
from repro.kb.knowledge_base import KnowledgeBase
from repro.kb.serialize import (
    canonical_digest,
    check_fields,
    knowledge_base_from_json,
    knowledge_base_to_json,
)
from repro.logic.interpretation import Vocabulary
from repro.logic.semantics import ModelSet
from repro.soak.stream import SoakConfig, SoakStep

__all__ = ["InvariantLedger", "OnlineInvariants"]

#: The fields of :meth:`InvariantLedger.to_dict`.
_LEDGER_FIELDS = {
    "checks": dict,
    "violations": list,
    "fixed_point_steps": int,
    "cycle_detections": dict,
    "unsat_resets": int,
}


@dataclass
class InvariantLedger:
    """The accumulated outcome of every online check.

    ``checks`` counts how many times each named invariant was evaluated;
    ``violations`` records each failure with its step index and a short
    diagnostic.  ``fixed_point_steps`` counts steps that left the state
    unchanged; ``cycle_detections`` histograms the limit-cycle lengths the
    rolling :class:`~repro.core.iterated.Trace` window observed;
    ``unsat_resets`` counts the (never expected) recoveries from an
    unsatisfiable state.  The whole ledger is JSON round-trippable so the
    journal can persist it at chunk boundaries.
    """

    checks: dict[str, int] = field(default_factory=dict)
    violations: list[dict[str, Any]] = field(default_factory=list)
    fixed_point_steps: int = 0
    cycle_detections: dict[str, int] = field(default_factory=dict)
    unsat_resets: int = 0

    def record(self, invariant: str) -> None:
        self.checks[invariant] = self.checks.get(invariant, 0) + 1

    def violate(self, step: int, invariant: str, detail: str) -> None:
        self.violations.append(
            {"step": step, "invariant": invariant, "detail": detail}
        )

    @property
    def total_checks(self) -> int:
        return sum(self.checks.values())

    def to_dict(self) -> dict[str, Any]:
        return {
            "checks": dict(sorted(self.checks.items())),
            "violations": list(self.violations),
            "fixed_point_steps": self.fixed_point_steps,
            "cycle_detections": dict(sorted(self.cycle_detections.items())),
            "unsat_resets": self.unsat_resets,
        }

    @classmethod
    def from_dict(cls, data: Any) -> "InvariantLedger":
        """Inverse of :meth:`to_dict`; a missing or mistyped field is
        refused with a :class:`ReproError`."""
        check_fields(data, _LEDGER_FIELDS, "soak ledger")
        for violation in data["violations"]:
            check_fields(violation, {"step": int, "invariant": str, "detail": str}, "soak ledger")
        counts = [*data["checks"].values(), *data["cycle_detections"].values()]
        if not all(isinstance(count, int) for count in counts):
            raise ReproError("malformed soak ledger: counts must be integers")
        return cls(**{name: copy.copy(data[name]) for name in _LEDGER_FIELDS})

    def digest(self) -> str:
        """Canonical SHA-256 of the ledger — two runs checked the same
        stream identically iff their digests match."""
        return canonical_digest(self.to_dict())


class OnlineInvariants:
    """Stateful online checker driven by the harness once per step."""

    def __init__(self, config: SoakConfig, fitting: ModelFittingOperator):
        self._config = config
        self._fitting = fitting
        self._arbitration = ArbitrationOperator(fitting)
        self.ledger = InvariantLedger()
        self._window: list[ModelSet] = []

    # -- resumable state -------------------------------------------------------

    def seed_window(self, state: ModelSet) -> None:
        """Start (or restart) the rolling trace window at ``state``."""
        self._window = [state]

    def window_masks(self) -> list[list[int]]:
        """The rolling window as JSON-ready mask lists (for the journal)."""
        return [list(state.masks) for state in self._window]

    def restore(
        self,
        ledger: InvariantLedger,
        window_masks: Sequence[Sequence[int]],
        vocabulary: Vocabulary,
    ) -> None:
        """Adopt a journaled ledger and trace window (resume path)."""
        self.ledger = ledger
        self._window = [ModelSet(vocabulary, masks) for masks in window_masks]

    # -- per-step checking ---------------------------------------------------

    def observe(
        self,
        step: SoakStep,
        before: ModelSet,
        after: ModelSet,
        incoming: Sequence[ModelSet],
        constraint_models: Optional[ModelSet] = None,
    ) -> None:
        """Check one completed step and update the trace bookkeeping."""
        ledger = self.ledger
        if step.kind == "revise":
            mu = incoming[0]
            if constraint_models is not None:
                mu = mu.intersection(constraint_models)
            ledger.record("R1-success")
            if not after.issubset(mu):
                ledger.violate(
                    step.index,
                    "R1-success",
                    "revision result has models outside Mod(μ)",
                )
            ledger.record("R2-vacuity")
            overlap = before.intersection(mu)
            if not overlap.is_empty and after != overlap:
                ledger.violate(
                    step.index,
                    "R2-vacuity",
                    "ψ ∧ μ is satisfiable but ψ ∘ μ ≠ ψ ∧ μ",
                )
        elif step.kind == "update":
            mu = incoming[0]
            if constraint_models is not None:
                mu = mu.intersection(constraint_models)
            ledger.record("U1-success")
            if not after.issubset(mu):
                ledger.violate(
                    step.index,
                    "U1-success",
                    "update result has models outside Mod(μ)",
                )
            ledger.record("U2-stability")
            if before.issubset(mu) and after != before:
                ledger.violate(
                    step.index,
                    "U2-stability",
                    "ψ implies μ but ψ ⋄ μ ≠ ψ",
                )
        else:  # arbitrate / merge — the consensus verbs
            union = before
            for voice in incoming:
                union = union.union(voice)
            ledger.record("A1-wellformed")
            if after.vocabulary != before.vocabulary:
                ledger.violate(
                    step.index,
                    "A1-wellformed",
                    "consensus changed vocabulary mid-stream",
                )
            ledger.record("A2-consistency")
            if after.is_empty != union.is_empty:
                ledger.violate(
                    step.index,
                    "A2-consistency",
                    "consensus satisfiability differs from the voices' disjunction",
                )
            if step.index % self._config.commute_every == 0:
                if step.kind == "arbitrate":
                    ledger.record("commutativity")
                    flipped = self._arbitration.apply_models(incoming[0], before)
                    if flipped != after:
                        ledger.violate(
                            step.index,
                            "commutativity",
                            "φ Δ ψ differs from ψ Δ φ",
                        )
                else:
                    ledger.record("merge-order")
                    voices = [before, *incoming]
                    flipped = self._arbitration.merge_models(list(reversed(voices)))
                    if flipped != after:
                        ledger.violate(
                            step.index,
                            "merge-order",
                            "n-ary merge is order-dependent",
                        )
        self._observe_trajectory(after)

    def _observe_trajectory(self, after: ModelSet) -> None:
        """Fixed-point/cycle bookkeeping over the rolling state window."""
        ledger = self.ledger
        if self._window and self._window[-1] == after:
            ledger.fixed_point_steps += 1
        self._window.append(after)
        if len(self._window) > self._config.trace_window:
            del self._window[0]
        cycle = Trace(tuple(self._window)).cycle_length
        if cycle is not None and cycle > 1:
            key = str(cycle)
            ledger.cycle_detections[key] = ledger.cycle_detections.get(key, 0) + 1

    def roundtrip(self, step_index: int, kb: KnowledgeBase) -> None:
        """Serialize→deserialize the knowledge base and compare state."""
        ledger = self.ledger
        ledger.record("serialize-roundtrip")
        restored = knowledge_base_from_json(knowledge_base_to_json(kb))
        problems = []
        if restored.model_set != kb.model_set:
            problems.append("model set changed")
        if restored.vocabulary != kb.vocabulary:
            problems.append("vocabulary changed")
        if len(restored.history) != len(kb.history):
            problems.append("history length changed")
        if str(restored.constraints) != str(kb.constraints):
            problems.append("constraints changed")
        if problems:
            ledger.violate(
                step_index,
                "serialize-roundtrip",
                "; ".join(problems),
            )
