"""Executable weighted-fitting axioms F1–F8 (Section 4).

The paper obtains F1–F8 from A1–A8 "by simply replacing regular knowledge
bases by weighted knowledge bases", with:

* implication  = pointwise ``≤`` on weight functions,
* equivalence  = equal weight functions,
* ∧            = pointwise minimum (⊓),
* ∨            = pointwise sum (⊔),
* satisfiable  = some positive weight.

Checks run on :class:`~repro.core.weighted.WeightedKnowledgeBase` and any
operator exposing ``apply(psi, mu) -> WeightedKnowledgeBase`` (duck-typed;
:class:`~repro.core.weighted.WeightedModelFitting` is the intended
subject).  Scenario spaces are sampled with small integer weights — the
weighted KB space is infinite, so exhaustiveness is impossible; sampling
with seeds keeps runs reproducible.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Protocol, Sequence

from repro import obs
from repro.core.weighted import WeightedKnowledgeBase
from repro.engine.resilience import DEFAULT_MAX_RETRIES
from repro.logic.interpretation import Vocabulary

__all__ = [
    "WeightedOperator",
    "WeightedAxiom",
    "WEIGHTED_AXIOMS",
    "WeightedCounterexample",
    "random_weighted_kbs",
    "check_weighted_axiom",
    "audit_weighted_operator",
    "render_weighted_audit",
]


class WeightedOperator(Protocol):
    """Anything applying a weighted change ``ψ̃ * μ̃``."""

    name: str

    def apply(
        self, psi: WeightedKnowledgeBase, mu: WeightedKnowledgeBase
    ) -> WeightedKnowledgeBase:
        """The weighted result."""
        ...


@dataclass(frozen=True)
class WeightedCounterexample:
    """A witnessed violation of one weighted axiom."""

    axiom: str
    operator: str
    roles: dict[str, WeightedKnowledgeBase]
    observed: dict[str, WeightedKnowledgeBase]
    explanation: str

    def describe(self) -> str:
        """Human-readable multi-line report."""
        lines = [f"{self.operator} violates ({self.axiom}): {self.explanation}"]
        for role, kb in self.roles.items():
            lines.append(f"  {role} = {kb!r}")
        for label, kb in self.observed.items():
            lines.append(f"  {label} = {kb!r}")
        return "\n".join(lines)


Scenario = Sequence[WeightedKnowledgeBase]
Checker = Callable[[WeightedOperator, Scenario], Optional[WeightedCounterexample]]


@dataclass(frozen=True)
class WeightedAxiom:
    """One executable weighted postulate."""

    name: str
    statement: str
    roles: tuple[str, ...]
    checker: Checker

    def check_instance(
        self, operator: WeightedOperator, scenario: Scenario
    ) -> Optional[WeightedCounterexample]:
        """Check one concrete instantiation."""
        return self.checker(operator, scenario)


def _ce(axiom, op, roles, observed, explanation):
    return WeightedCounterexample(axiom, op.name, roles, observed, explanation)


def _check_f1(op: WeightedOperator, scenario: Scenario):
    psi, mu = scenario
    result = op.apply(psi, mu)
    if not result.implies(mu):
        return _ce("F1", op, {"psi": psi, "mu": mu}, {"result": result},
                   "ψ̃ ▷ μ̃ must imply μ̃ (pointwise ≤)")
    return None


def _check_f2(op: WeightedOperator, scenario: Scenario):
    psi, mu = scenario
    if psi.is_satisfiable:
        return None
    result = op.apply(psi, mu)
    if result.is_satisfiable:
        return _ce("F2", op, {"psi": psi, "mu": mu}, {"result": result},
                   "unsatisfiable ψ̃ must yield an unsatisfiable result")
    return None


def _check_f3(op: WeightedOperator, scenario: Scenario):
    psi, mu = scenario
    if not (psi.is_satisfiable and mu.is_satisfiable):
        return None
    result = op.apply(psi, mu)
    if not result.is_satisfiable:
        return _ce("F3", op, {"psi": psi, "mu": mu}, {"result": result},
                   "satisfiable ψ̃ and μ̃ must yield a satisfiable result")
    return None


def _check_f4(op: WeightedOperator, scenario: Scenario):
    # Weighted KBs are semantic objects (weight functions), so two
    # equivalent inputs are the *same* input; determinism is what remains
    # checkable: repeated application must agree.
    psi, mu = scenario
    first = op.apply(psi, mu)
    second = op.apply(psi, mu)
    if not first.equivalent(second):
        return _ce("F4", op, {"psi": psi, "mu": mu},
                   {"first": first, "second": second},
                   "operator is not deterministic on equal inputs")
    return None


def _check_f5(op: WeightedOperator, scenario: Scenario):
    psi, mu, phi = scenario
    left = op.apply(psi, mu).meet(phi)
    right = op.apply(psi, mu.meet(phi))
    if not left.implies(right):
        return _ce("F5", op, {"psi": psi, "mu": mu, "phi": phi},
                   {"lhs (ψ▷μ)⊓φ": left, "rhs ψ▷(μ⊓φ)": right},
                   "(ψ̃ ▷ μ̃) ∧ φ̃ must imply ψ̃ ▷ (μ̃ ∧ φ̃)")
    return None


def _check_f6(op: WeightedOperator, scenario: Scenario):
    psi, mu, phi = scenario
    left = op.apply(psi, mu).meet(phi)
    if not left.is_satisfiable:
        return None
    right = op.apply(psi, mu.meet(phi))
    if not right.implies(left):
        return _ce("F6", op, {"psi": psi, "mu": mu, "phi": phi},
                   {"lhs (ψ▷μ)⊓φ": left, "rhs ψ▷(μ⊓φ)": right},
                   "(ψ̃▷μ̃) ∧ φ̃ is satisfiable so ψ̃▷(μ̃∧φ̃) must imply it")
    return None


def _check_f7(op: WeightedOperator, scenario: Scenario):
    psi1, psi2, mu = scenario
    left = op.apply(psi1, mu).meet(op.apply(psi2, mu))
    right = op.apply(psi1.join(psi2), mu)
    if not left.implies(right):
        return _ce("F7", op, {"psi1": psi1, "psi2": psi2, "mu": mu},
                   {"(ψ1▷μ)⊓(ψ2▷μ)": left, "(ψ1⊔ψ2)▷μ": right},
                   "(ψ̃₁▷μ̃) ∧ (ψ̃₂▷μ̃) must imply (ψ̃₁∨ψ̃₂)▷μ̃")
    return None


def _check_f8(op: WeightedOperator, scenario: Scenario):
    psi1, psi2, mu = scenario
    left = op.apply(psi1, mu).meet(op.apply(psi2, mu))
    if not left.is_satisfiable:
        return None
    right = op.apply(psi1.join(psi2), mu)
    if not right.implies(left):
        return _ce("F8", op, {"psi1": psi1, "psi2": psi2, "mu": mu},
                   {"(ψ1▷μ)⊓(ψ2▷μ)": left, "(ψ1⊔ψ2)▷μ": right},
                   "the conjunction is satisfiable so (ψ̃₁∨ψ̃₂)▷μ̃ must imply it")
    return None


WEIGHTED_AXIOMS: tuple[WeightedAxiom, ...] = (
    WeightedAxiom("F1", "ψ̃ ▷ μ̃ implies μ̃", ("psi", "mu"), _check_f1),
    WeightedAxiom("F2", "unsat ψ̃ gives unsat result", ("psi", "mu"), _check_f2),
    WeightedAxiom("F3", "sat ψ̃, μ̃ give sat result", ("psi", "mu"), _check_f3),
    WeightedAxiom("F4", "syntax irrelevance / determinism", ("psi", "mu"), _check_f4),
    WeightedAxiom("F5", "(ψ̃▷μ̃) ∧ φ̃ implies ψ̃▷(μ̃∧φ̃)", ("psi", "mu", "phi"), _check_f5),
    WeightedAxiom("F6", "converse of F5 under satisfiability", ("psi", "mu", "phi"), _check_f6),
    WeightedAxiom("F7", "(ψ̃₁▷μ̃) ∧ (ψ̃₂▷μ̃) implies (ψ̃₁∨ψ̃₂)▷μ̃", ("psi1", "psi2", "mu"), _check_f7),
    WeightedAxiom("F8", "converse of F7 under satisfiability", ("psi1", "psi2", "mu"), _check_f8),
)


def random_weighted_kbs(
    vocabulary: Vocabulary,
    count: int,
    rng: int | random.Random,
    max_weight: int = 5,
    density: float = 0.5,
    include_unsatisfiable: bool = True,
) -> Iterator[WeightedKnowledgeBase]:
    """Seeded random weighted KBs with small integer weights.

    Each interpretation independently receives a positive weight in
    ``1..max_weight`` with probability ``density``.  Occasionally emits the
    all-zero KB (needed to exercise F2) unless excluded.

    The weight maps come from :func:`repro.engine.chunks.sample_weight_maps`
    — the single definition of the sampling stream, shared with the
    parallel engine's chunk planner so chunked sweeps replay exactly this
    sequence.
    """
    from repro.engine.chunks import sample_weight_maps

    generator = rng if isinstance(rng, random.Random) else random.Random(rng)
    maps = sample_weight_maps(
        generator,
        count,
        vocabulary.interpretation_count,
        max_weight,
        density,
        include_unsatisfiable,
    )
    for weights in maps:
        yield WeightedKnowledgeBase(vocabulary, weights)


def check_weighted_axiom(
    operator: WeightedOperator,
    axiom: WeightedAxiom,
    vocabulary: Vocabulary,
    scenarios: int = 500,
    rng: int | random.Random = 0,
    jobs: int = 1,
    max_weight: int = 5,
    density: float = 0.5,
    chunk_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> Optional[WeightedCounterexample]:
    """Sampled check of one weighted axiom; first counterexample or None.

    ``jobs > 1`` routes through the weighted audit engine
    (:func:`repro.engine.weighted.run_weighted_audit`), whose
    min-global-index merge reports the same first counterexample as this
    serial loop over the identical sampled stream; ``chunk_timeout`` /
    ``max_retries`` configure its resilience ladder (ignored serially).
    """
    if jobs > 1:
        from repro.engine.weighted import run_weighted_audit

        outcome = run_weighted_audit(
            operator,
            [axiom],
            vocabulary,
            scenarios=scenarios,
            rng=rng,
            jobs=jobs,
            max_weight=max_weight,
            density=density,
            chunk_timeout=chunk_timeout,
            max_retries=max_retries,
        )
        return outcome.results[axiom.name]
    generator = rng if isinstance(rng, random.Random) else random.Random(rng)
    roles = len(axiom.roles)
    pool = list(
        random_weighted_kbs(
            vocabulary,
            scenarios * roles,
            generator,
            max_weight=max_weight,
            density=density,
        )
    )
    first: Optional[WeightedCounterexample] = None
    checked = 0
    start = time.perf_counter()
    for index in range(scenarios):
        scenario = tuple(pool[index * roles + offset] for offset in range(roles))
        checked += 1
        first = axiom.check_instance(operator, scenario)
        if first is not None:
            break
    elapsed = time.perf_counter() - start
    registry = obs.active()
    if registry is not None:
        registry.counter("harness.weighted_checks").inc()
        registry.counter("harness.weighted_scenarios").inc(checked)
        registry.histogram("harness.weighted_check_seconds").observe(elapsed)
    return first


def audit_weighted_operator(
    operator: WeightedOperator,
    vocabulary: Vocabulary,
    scenarios: int = 500,
    rng: int | random.Random = 0,
    jobs: int = 1,
    max_weight: int = 5,
    density: float = 0.5,
    chunk_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    shm: Optional[bool] = None,
) -> dict[str, Optional[WeightedCounterexample]]:
    """Check all of F1–F8; results keyed by axiom name (None = held).

    With ``jobs > 1`` the whole F1–F8 sweep runs through one process pool
    (:func:`repro.engine.weighted.run_weighted_audit`); the verdict matrix
    is cell-identical to the serial loop at any job count.  ``shm``
    selects the zero-copy arena path (``None`` = auto).
    """
    if jobs > 1:
        from repro.engine.weighted import run_weighted_audit

        outcome = run_weighted_audit(
            operator,
            WEIGHTED_AXIOMS,
            vocabulary,
            scenarios=scenarios,
            rng=rng,
            jobs=jobs,
            max_weight=max_weight,
            density=density,
            chunk_timeout=chunk_timeout,
            max_retries=max_retries,
            shm=shm,
        )
        return outcome.results
    return {
        axiom.name: check_weighted_axiom(
            operator,
            axiom,
            vocabulary,
            scenarios,
            rng,
            max_weight=max_weight,
            density=density,
        )
        for axiom in WEIGHTED_AXIOMS
    }


def render_weighted_audit(
    results: dict[str, dict[str, Optional[WeightedCounterexample]]],
) -> str:
    """Plain-text F1–F8 table: one row per weighted operator.

    ``✓?``/``✗?`` for held/failed — always marked sampled, because the
    weighted scenario space is infinite and never exhaustible.
    """
    axioms = [axiom.name for axiom in WEIGHTED_AXIOMS]
    width = max(len(name) for name in results) + 2
    header = "operator".ljust(width) + " ".join(axiom.rjust(3) for axiom in axioms)
    lines = [header, "-" * len(header)]
    for operator, verdicts in results.items():
        cells = [
            ("✓?" if verdicts.get(axiom) is None else "✗?").rjust(3)
            for axiom in axioms
        ]
        lines.append(operator.ljust(width) + " ".join(cells))
    return "\n".join(lines)
