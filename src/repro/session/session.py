"""Long-lived theory-change sessions over shared execution contexts.

A :class:`Session` is the unit the serving layer holds per client: a
knowledge base (Boolean :class:`~repro.kb.knowledge_base.KnowledgeBase`
or weighted :class:`~repro.core.weighted.WeightedKnowledgeBase`), the
operator configuration chosen at creation, and a route to the shared
:class:`~repro.session.registry.ContextRegistry` so that every change —
revise, update, fit, arbitrate, merge — executes on the one engine
context for its ``(operator, vocabulary)`` instead of rebuilding distance
matrices per call.

The knowledge base stays immutable; the session is the mutable cursor
over its states, so ``session.kb.history`` is the full provenance log.
Results are answer-identical to calling the knowledge-base verbs with
plain operators (``tests/test_session.py`` pins this): the context proxy
merely swaps *where* the arithmetic happens, never *what* it computes.
"""

from __future__ import annotations

import re
from typing import Callable, Mapping, Optional, Sequence, Union

from repro.core.fitting import PriorityFitting, ReveszFitting
from repro.core.weighted import (
    WeightedArbitration,
    WeightedKnowledgeBase,
    WeightedModelFitting,
)
from repro.errors import ReproError
from repro.kb.knowledge_base import KnowledgeBase
from repro.logic.enumeration import models
from repro.logic.parser import as_formula
from repro.logic.syntax import Formula
from repro.operators.base import TheoryChangeOperator
from repro.operators.revision import (
    BorgidaRevision,
    DalalRevision,
    SatohRevision,
    WeberRevision,
)
from repro.operators.update import ForbusUpdate, WinslettUpdate
from repro.session.dispatch import AUTO, ensure_impl
from repro.session.registry import ContextRegistry, default_registry

__all__ = [
    "OPERATOR_FACTORIES",
    "DEFAULT_OPERATOR_NAMES",
    "operator_by_name",
    "Session",
    "WeightedSession",
]

FormulaLike = Union[str, Formula]

#: Name → constructor for every dispatchable operator.  The CLI's
#: ``change`` command and the serving layer both resolve through this
#: single table.
OPERATOR_FACTORIES: Mapping[str, Callable[[], TheoryChangeOperator]] = {
    "dalal": DalalRevision,
    "satoh": SatohRevision,
    "borgida": BorgidaRevision,
    "weber": WeberRevision,
    "winslett": WinslettUpdate,
    "forbus": ForbusUpdate,
    "odist": ReveszFitting,
    "priority": PriorityFitting,
}

#: Per-verb defaults, matching ``KnowledgeBase``'s own defaults.
DEFAULT_OPERATOR_NAMES: Mapping[str, str] = {
    "revision": "dalal",
    "update": "winslett",
    "fitting": "odist",
}

_SESSION_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def operator_by_name(name: str) -> TheoryChangeOperator:
    """Instantiate a dispatchable operator by its short name."""
    factory = OPERATOR_FACTORIES.get(name) if isinstance(name, str) else None
    if factory is None:
        raise ReproError(
            f"unknown operator {name!r}; known: {sorted(OPERATOR_FACTORIES)}"
        )
    return factory()


def validate_session_id(session_id: str) -> str:
    """Session ids double as store file names; keep them path-safe."""
    if not isinstance(session_id, str) or not _SESSION_ID.match(session_id):
        raise ReproError(
            f"invalid session id {session_id!r}: expected 1-64 chars of "
            "[A-Za-z0-9._-] not starting with a dot or dash"
        )
    return session_id


class _ContextOperator(TheoryChangeOperator):
    """An operator proxy that executes through the shared registry.

    Carries the inner operator's identity (name, family) so provenance
    records and reports are unchanged.  ``apply_models`` resolves the
    execution context from the registry on every call and keeps no
    reference to it, so a context the LRU evicts is rebuilt once and
    then shared again, never held privately.
    """

    __slots__ = ("_inner", "_registry", "_impl")

    def __init__(
        self,
        inner: TheoryChangeOperator,
        registry: ContextRegistry,
        impl: str = AUTO,
    ):
        self._inner = inner
        self._registry = registry
        self._impl = impl
        self.name = inner.name
        self.family = inner.family

    def apply_models(self, psi, mu):
        self._check_vocabularies(psi, mu)
        context = self._registry.context_for(self._inner, psi.vocabulary, self._impl)
        return context.apply_model_sets(psi, mu)


class Session:
    """One client's Boolean theory-change session.

    >>> session = Session("jury-1", atoms=["A", "B", "C"],
    ...                   formula="A & B & (A & B -> C)")
    >>> session.revise("!C")              # doctest: +ELLIPSIS
    <...>
    >>> session.kb.satisfiable
    True
    """

    kind = "boolean"

    def __init__(
        self,
        session_id: str,
        atoms: Sequence[str],
        formula: FormulaLike = "true",
        operators: Optional[Mapping[str, str]] = None,
        impl: str = AUTO,
        registry: Optional[ContextRegistry] = None,
        _kb_payload: Optional[dict] = None,
    ):
        self.session_id = validate_session_id(session_id)
        self._impl = ensure_impl(impl)
        if registry is None:
            registry = default_registry()
        if operators is not None and not isinstance(operators, Mapping):
            raise ReproError(
                "operators must map roles to operator names, "
                f"got {type(operators).__name__}"
            )
        names = dict(DEFAULT_OPERATOR_NAMES)
        names.update(operators or {})
        unknown = set(names) - set(DEFAULT_OPERATOR_NAMES)
        if unknown:
            raise ReproError(
                f"unknown operator roles {sorted(unknown)}; "
                f"expected {sorted(DEFAULT_OPERATOR_NAMES)}"
            )
        self._operator_names = names
        # The roles are KnowledgeBase's operator keywords.
        roles = {
            role: _ContextOperator(operator_by_name(name), registry, impl)
            for role, name in names.items()
        }
        if _kb_payload is not None:
            from repro.kb.serialize import knowledge_base_from_dict

            self._kb = knowledge_base_from_dict(_kb_payload, **roles)
        else:
            self._kb = KnowledgeBase(formula, atoms=list(atoms), **roles)

    # -- inspection ---------------------------------------------------------

    @property
    def kb(self) -> KnowledgeBase:
        """The current knowledge-base state."""
        return self._kb

    @property
    def vocabulary(self):
        return self._kb.vocabulary

    @property
    def operator_names(self) -> Mapping[str, str]:
        """The per-verb operator configuration."""
        return dict(self._operator_names)

    @property
    def impl(self) -> str:
        return self._impl

    def state(self) -> dict:
        """The JSON-friendly session summary the serving layer returns."""
        return {
            "id": self.session_id,
            "kind": self.kind,
            "atoms": list(self.vocabulary.atoms),
            "operators": dict(self._operator_names),
            "formula": str(self._kb.to_formula()),
            "models": len(self._kb.model_set),
            "satisfiable": self._kb.satisfiable,
            "steps": len(self._kb.history),
        }

    # -- theory change ------------------------------------------------------

    def revise(self, new_information: FormulaLike) -> KnowledgeBase:
        self._kb = self._kb.revise(new_information)
        return self._kb

    def update(self, new_information: FormulaLike) -> KnowledgeBase:
        self._kb = self._kb.update(new_information)
        return self._kb

    def fit(self, new_information: FormulaLike) -> KnowledgeBase:
        self._kb = self._kb.fit(new_information)
        return self._kb

    def arbitrate(self, new_information: FormulaLike) -> KnowledgeBase:
        self._kb = self._kb.arbitrate(new_information)
        return self._kb

    def contract(self, retracted: FormulaLike) -> KnowledgeBase:
        self._kb = self._kb.contract(retracted)
        return self._kb

    def merge(self, sources: Sequence[FormulaLike]) -> KnowledgeBase:
        self._kb = self._kb.merge(sources)
        return self._kb

    def ask(self, query: FormulaLike) -> str:
        """Three-valued query answer (``yes`` / ``no`` / ``unknown``)."""
        return self._kb.ask(query)

    # -- persistence --------------------------------------------------------

    def to_payload(self) -> dict:
        """The store snapshot (versioned by :mod:`repro.kb.serialize`)."""
        from repro.kb.serialize import knowledge_base_to_dict

        return {
            "id": self.session_id,
            "session_kind": self.kind,
            "operators": dict(self._operator_names),
            "impl": self._impl,
            "kb": knowledge_base_to_dict(self._kb),
        }

    @classmethod
    def from_payload(
        cls, data: dict, registry: Optional[ContextRegistry] = None
    ) -> "Session":
        """Inverse of :meth:`to_payload`; the stored id, ``impl`` and
        ``operators`` are checked exactly as a create request's are."""
        # The stored knowledge base carries its own atoms and formula.
        return cls(
            data["id"],
            atoms=(),
            operators=data.get("operators"),
            impl=data.get("impl", AUTO),
            registry=registry,
            _kb_payload=data["kb"],
        )

    def __repr__(self) -> str:
        return (
            f"Session({self.session_id!r}, atoms={list(self.vocabulary.atoms)}, "
            f"steps={len(self._kb.history)})"
        )


class WeightedSession:
    """A weighted (Section 4) session: graded trust instead of model sets.

    The weighted operators carry their own dense/exact backend dispatch
    internally, so this session does not route through the context
    registry; it exists so the serving layer speaks one protocol for both
    knowledge-state families.
    """

    kind = "weighted"

    def __init__(
        self,
        session_id: str,
        atoms: Sequence[str],
        formula: FormulaLike = "true",
        weight: int = 1,
        _wkb: Optional[WeightedKnowledgeBase] = None,
    ):
        self.session_id = validate_session_id(session_id)
        from repro.logic.interpretation import Vocabulary

        self._vocabulary = Vocabulary(list(atoms))
        if _wkb is not None:
            self._wkb = _wkb
        else:
            self._wkb = WeightedKnowledgeBase.from_formula(
                as_formula(formula), self._vocabulary, weight=weight
            )
        self._fitting = WeightedModelFitting()
        self._arbitration = WeightedArbitration(self._fitting)
        self._steps = 0

    @property
    def wkb(self) -> WeightedKnowledgeBase:
        return self._wkb

    @property
    def vocabulary(self):
        return self._vocabulary

    def state(self) -> dict:
        support = self._wkb.support()
        from repro.logic.implicants import minimal_formula

        return {
            "id": self.session_id,
            "kind": self.kind,
            "atoms": list(self._vocabulary.atoms),
            "formula": str(minimal_formula(support)),
            "models": len(support),
            "satisfiable": not support.is_empty,
            "steps": self._steps,
        }

    def _incoming(self, formula: FormulaLike, weight: int) -> WeightedKnowledgeBase:
        return WeightedKnowledgeBase.from_formula(
            as_formula(formula), self._vocabulary, weight=weight
        )

    def fit(self, formula: FormulaLike, weight: int = 1) -> WeightedKnowledgeBase:
        """Weighted model-fitting ``ψ̃ ▷ μ̃``."""
        self._wkb = self._fitting.apply(self._wkb, self._incoming(formula, weight))
        self._steps += 1
        return self._wkb

    def arbitrate(
        self, formula: FormulaLike, weight: int = 1
    ) -> WeightedKnowledgeBase:
        """Weighted arbitration ``ψ̃ Δ φ̃``."""
        self._wkb = self._arbitration.apply(
            self._wkb, self._incoming(formula, weight)
        )
        self._steps += 1
        return self._wkb

    def merge(
        self, sources: Sequence[FormulaLike], weights: Optional[Sequence[int]] = None
    ) -> WeightedKnowledgeBase:
        """N-ary weighted consensus including the current base."""
        if not sources:
            raise ReproError("merge requires at least one source")
        if weights is None:
            weights = [1] * len(sources)
        if len(weights) != len(sources):
            raise ReproError("merge weights must match sources one-to-one")
        incoming = [
            self._incoming(formula, weight)
            for formula, weight in zip(sources, weights)
        ]
        self._wkb = self._arbitration.merge([self._wkb] + incoming)
        self._steps += 1
        return self._wkb

    def ask(self, query: FormulaLike) -> str:
        """Three-valued entailment over the support of the weighted base."""
        support = self._wkb.support()
        query_models = models(as_formula(query), self._vocabulary)
        if support.issubset(query_models):
            return "yes"
        if support.intersection(query_models).is_empty:
            return "no"
        return "unknown"

    def to_payload(self) -> dict:
        from repro.kb.serialize import weighted_kb_to_dict

        return {
            "id": self.session_id,
            "session_kind": self.kind,
            "steps": self._steps,
            "kb": weighted_kb_to_dict(self._wkb),
        }

    @classmethod
    def from_payload(cls, data: dict) -> "WeightedSession":
        from repro.kb.serialize import weighted_kb_from_dict

        wkb = weighted_kb_from_dict(data["kb"])
        session = cls(
            data["id"], atoms=list(wkb.vocabulary.atoms), _wkb=wkb
        )
        session._steps = int(data.get("steps", 0))
        return session

    def __repr__(self) -> str:
        return (
            f"WeightedSession({self.session_id!r}, "
            f"atoms={list(self._vocabulary.atoms)}, steps={self._steps})"
        )
