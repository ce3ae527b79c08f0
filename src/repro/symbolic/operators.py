"""Symbolic execution of theory-change operators.

Every operator here computes ``Mod(ψ * μ)`` purely on BDD nodes:

* **Dalal** — ``Min(Mod(μ), ≤ψ)`` over the faithful min-distance order:
  walk the Hamming-ball chain of ψ and stop at the first radius whose
  ball meets μ (:class:`~repro.orders.symbolic.SymbolicPreorder`,
  ``kind="min"``).
* **Revesz odist / arbitration / merge** — the loyal max-distance order,
  whose level sets come from the complement image (``kind="max"``).
* **Satoh** — symmetric-difference image + ⊆-minimal elements + image
  back (:meth:`BddManager.xor_image`, :meth:`BddManager.subset_minimal`).
* **Weber** — Satoh's minimal diffs, union their atoms, forget them in ψ
  (:meth:`BddManager.forget_levels`), conjoin with μ.
* **Forbus** — per-distance decomposition: ψ-models whose min-distance to
  μ is exactly ``d`` select exactly the μ-models within ball ``d`` of
  them, so the result is ``⋁_d μ ∧ ball_d(ψ ∧ sphere_d(μ))``.

Winslett's PMA and Borgida's operator compare difference *sets* per
ψ-model (a genuinely per-model ⊆-minimality), which does not reduce to
one global level walk; they stay dense-only and
:func:`supports_symbolic` says so.

Dispatch: :meth:`TheoryChangeOperator.apply` consults
:func:`symbolic_threshold` (env ``REPRO_SYMBOLIC_THRESHOLD``, default
15) in ``impl="auto"`` mode, so formula-level callers transparently jump
the ``2^|T|`` wall once the vocabulary is large enough.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

from repro.distances.base import HammingDistance
from repro.errors import ReproError, VocabularyError
from repro.logic.bdd import FALSE, TRUE, BddManager, manager_for
from repro.logic.interpretation import Vocabulary
from repro.logic.syntax import Formula
from repro.operators.base import AssignmentOperator, TheoryChangeOperator
from repro.operators.revision import SatohRevision, WeberRevision
from repro.operators.update import ForbusUpdate
from repro.orders.symbolic import (
    SymbolicPreorder,
    max_distance_preorder,
    min_distance_preorder,
)
from repro.symbolic.sets import SymbolicModelSet

__all__ = [
    "DEFAULT_SYMBOLIC_THRESHOLD",
    "SYMBOLIC_THRESHOLD_ENV",
    "symbolic_threshold",
    "supports_symbolic",
    "apply_models_symbolic",
    "merge_models_symbolic",
    "apply_symbolic",
    "SymbolicOperator",
]

#: Vocabulary size at which ``impl="auto"`` switches to the symbolic
#: backend.  Below it the dense numpy kernels win; at and above it the
#: dense path starts materializing tens of thousands of interpretations
#: per query.  Override per-process with ``REPRO_SYMBOLIC_THRESHOLD``.
DEFAULT_SYMBOLIC_THRESHOLD = 15

SYMBOLIC_THRESHOLD_ENV = "REPRO_SYMBOLIC_THRESHOLD"


def symbolic_threshold() -> int:
    """The auto-dispatch vocabulary-size threshold (env-overridable)."""
    raw = os.environ.get(SYMBOLIC_THRESHOLD_ENV)
    if raw is None:
        return DEFAULT_SYMBOLIC_THRESHOLD
    try:
        value = int(raw)
    except ValueError as error:
        raise ReproError(
            f"{SYMBOLIC_THRESHOLD_ENV} must be an integer, got {raw!r}"
        ) from error
    if value < 0:
        raise ReproError(f"{SYMBOLIC_THRESHOLD_ENV} must be >= 0, got {value}")
    return value


def _assignment_kind(operator: TheoryChangeOperator) -> Optional[str]:
    """The level-walkable order kind of an assignment operator, if any."""
    if not isinstance(operator, AssignmentOperator):
        return None
    builder = operator.builder
    kind = getattr(builder, "kind", None)
    metric = getattr(builder, "metric", None)
    if kind in ("min", "max") and isinstance(metric, HammingDistance):
        return kind
    return None


def supports_symbolic(operator: TheoryChangeOperator) -> bool:
    """Whether the operator has a symbolic (level-walk) execution.

    True for Dalal and the max-distance fitting family (Hamming metric),
    Satoh, Weber, Forbus, and arbitration over a supported fitting.
    False for the per-model ⊆-minimal operators (Winslett, Borgida), the
    lexicographic/sum fittings, and non-Hamming metrics.
    """
    from repro.core.arbitration import ArbitrationOperator

    if isinstance(operator, ArbitrationOperator):
        return supports_symbolic(operator.fitting)
    if _assignment_kind(operator) is not None:
        return True
    if isinstance(operator, (SatohRevision, WeberRevision)):
        return True
    if isinstance(operator, ForbusUpdate):
        return isinstance(operator.distance, HammingDistance)
    return False


def _require_same_manager(
    psi: SymbolicModelSet, mu: SymbolicModelSet
) -> BddManager:
    if psi.vocabulary != mu.vocabulary:
        raise VocabularyError("ψ and μ are over different vocabularies")
    if psi.manager is not mu.manager:
        raise VocabularyError("ψ and μ live on different BDD managers")
    return psi.manager


def _minimal(preorder: SymbolicPreorder, candidates: int) -> int:
    return preorder.minimal(candidates)


def _apply_assignment(
    operator: AssignmentOperator, kind: str, manager: BddManager, psi: int, mu: int
) -> int:
    if psi == FALSE:
        # Mirror AssignmentOperator.apply_models' unsat-ψ policy branch.
        return mu if operator.unsat_base == "accept-new" else FALSE
    if kind == "min":
        preorder = min_distance_preorder(manager, psi)
    else:
        preorder = max_distance_preorder(manager, psi)
    return _minimal(preorder, mu)


def _apply_satoh(manager: BddManager, psi: int, mu: int) -> int:
    if psi == FALSE or mu == FALSE:
        return mu
    diffs = manager.xor_image(mu, psi)
    minimal = manager.subset_minimal(diffs)
    return manager.apply_and(mu, manager.xor_image(psi, minimal))


def _apply_weber(manager: BddManager, psi: int, mu: int) -> int:
    if psi == FALSE or mu == FALSE:
        return mu
    diffs = manager.xor_image(mu, psi)
    minimal = manager.subset_minimal(diffs)
    forgotten = [
        level
        for level in range(manager.vocabulary.size)
        if manager.apply_and(minimal, manager.var_level(level)) != FALSE
    ]
    return manager.apply_and(mu, manager.forget_levels(psi, forgotten))


def _apply_forbus(manager: BddManager, psi: int, mu: int) -> int:
    if psi == FALSE or mu == FALSE:
        return FALSE
    size = manager.vocabulary.size
    result = FALSE
    previous_ball = FALSE
    for distance in range(size + 1):
        ball = manager.hamming_ball(mu, distance)
        # ψ-models whose min distance to μ is exactly ``distance``.
        shell = manager.apply_and(psi, manager.apply_and(
            ball, manager.apply_not(previous_ball)
        ))
        if shell != FALSE:
            result = manager.apply_or(
                result,
                manager.apply_and(mu, manager.hamming_ball(shell, distance)),
            )
        previous_ball = ball
        if manager.apply_and(psi, manager.apply_not(ball)) == FALSE:
            break  # every ψ-model is within reach; later shells are empty
    return result


def apply_models_symbolic(
    operator: TheoryChangeOperator,
    psi: SymbolicModelSet,
    mu: SymbolicModelSet,
) -> SymbolicModelSet:
    """``Mod(ψ * μ)`` computed symbolically, result-identical to the
    operator's dense ``apply_models`` (the differential suite enforces
    this cell-exactly)."""
    from repro.core.arbitration import ArbitrationOperator

    manager = _require_same_manager(psi, mu)
    if isinstance(operator, ArbitrationOperator):
        union = manager.apply_or(psi.node, mu.node)
        fitting = operator.fitting
        kind = _assignment_kind(fitting)
        if kind is None:
            raise ReproError(
                f"operator {operator.name!r} has no symbolic execution"
            )
        node = _apply_assignment(fitting, kind, manager, union, TRUE)
        return SymbolicModelSet(manager, node)
    kind = _assignment_kind(operator)
    if kind is not None:
        node = _apply_assignment(operator, kind, manager, psi.node, mu.node)
    elif isinstance(operator, SatohRevision):
        node = _apply_satoh(manager, psi.node, mu.node)
    elif isinstance(operator, WeberRevision):
        node = _apply_weber(manager, psi.node, mu.node)
    elif isinstance(operator, ForbusUpdate):
        if not isinstance(operator.distance, HammingDistance):
            raise ReproError(
                f"operator {operator.name!r} has no symbolic execution "
                "(non-Hamming metric)"
            )
        node = _apply_forbus(manager, psi.node, mu.node)
    else:
        raise ReproError(
            f"operator {operator.name!r} has no symbolic execution "
            "(per-model ⊆-minimality does not reduce to a level walk)"
        )
    return SymbolicModelSet(manager, node)


def merge_models_symbolic(
    operator, sources: Sequence[SymbolicModelSet]
) -> SymbolicModelSet:
    """N-ary consensus merge, symbolically: fit ℳ to the union of all
    sources (mirrors :meth:`ArbitrationOperator.merge_models`)."""
    if not sources:
        raise VocabularyError("merge requires at least one source")
    manager = sources[0].manager
    union = sources[0].node
    for source in sources[1:]:
        _require_same_manager(sources[0], source)
        union = manager.apply_or(union, source.node)
    fitting = operator.fitting
    kind = _assignment_kind(fitting)
    if kind is None:
        raise ReproError(f"operator {operator.name!r} has no symbolic execution")
    node = _apply_assignment(fitting, kind, manager, union, TRUE)
    return SymbolicModelSet(manager, node)


class SymbolicOperator:
    """A thin wrapper presenting a dense operator's identity (name,
    family) with a symbolic ``apply_models`` — what the postulate harness
    audits when ``impl="symbolic"``."""

    __slots__ = ("_inner", "name", "family")

    def __init__(self, operator: TheoryChangeOperator):
        if not supports_symbolic(operator):
            raise ReproError(
                f"operator {operator.name!r} has no symbolic execution"
            )
        self._inner = operator
        self.name = operator.name
        self.family = operator.family

    @property
    def inner(self) -> TheoryChangeOperator:
        return self._inner

    def apply_models(
        self, psi: SymbolicModelSet, mu: SymbolicModelSet
    ) -> SymbolicModelSet:
        return apply_models_symbolic(self._inner, psi, mu)

    def __repr__(self) -> str:
        return f"<SymbolicOperator {self.name!r}>"


def apply_symbolic(
    operator: TheoryChangeOperator,
    psi: Formula,
    mu: Formula,
    vocabulary: Optional[Vocabulary] = None,
) -> Formula:
    """Formula-level symbolic application: build nodes, change, re-express
    as a path-DNF formula (the 30+-atom replacement for
    ``TheoryChangeOperator.apply``'s enumerate/``form_formula`` cycle)."""
    if vocabulary is None:
        vocabulary = Vocabulary.from_formulas(psi, mu)
    manager = manager_for(vocabulary)
    result = apply_models_symbolic(
        operator,
        SymbolicModelSet(manager, manager.from_formula(psi)),
        SymbolicModelSet(manager, manager.from_formula(mu)),
    )
    return result.to_formula()
