"""Long-lived theory-change sessions over shared execution contexts.

A session is the unit the serving layer holds per client: an id, a
knowledge base (Boolean :class:`~repro.kb.knowledge_base.KnowledgeBase`
or weighted :class:`~repro.core.weighted.WeightedKnowledgeBase`) and the
operator roster chosen at creation.  A Boolean session's operators route
through the shared :class:`~repro.session.registry.ContextRegistry`, so
that every change executes on the one engine context for its
``(operator, vocabulary)`` instead of rebuilding distance matrices per
call.  ``query`` answers a request body through the family's verb table
(``verbs``), for the server and the load replay alike.

The knowledge base stays immutable; the session is the mutable cursor
over its states, so ``session.kb.history`` is the full provenance log.
Results are answer-identical to calling the knowledge-base verbs with
plain operators (``tests/test_session.py`` pins this): the context proxy
merely swaps *where* the arithmetic happens, never *what* it computes.
"""

from __future__ import annotations

import re
from typing import Any, Callable, Mapping, Optional, Sequence, Union

from repro.core.fitting import PriorityFitting, ReveszFitting
from repro.core.weighted import (
    WeightedArbitration,
    WeightedKnowledgeBase,
    WeightedModelFitting,
)
from repro.errors import ReproError
from repro.kb.knowledge_base import VERBS, KnowledgeBase, ask_models, verb_argument
from repro.logic.implicants import minimal_formula
from repro.logic.interpretation import Vocabulary
from repro.logic.parser import as_formula
from repro.logic.semantics import ModelSet
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
    "SESSION_KINDS",
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


def _weight(value: Any, message: str) -> int:
    """A client-supplied weight as an ``int`` (``"3"`` and ``2.5``
    coerce); a value ``int()`` refuses is a :class:`ReproError`."""
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: 1e999
        raise ReproError(message) from None


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


class _Session:
    """What both session kinds share: a path-safe id, the payload
    envelope, the ``state()`` summary, the three-valued ``ask`` and the
    answer to a query body through the family's verb table."""

    kind: str  # the summary's ``kind``, the snapshot's ``session_kind``
    verbs: Mapping[str, str]  # the family's verb table
    logged: bool  # keeps a provenance log, which its store file appends

    def __init__(self, session_id: str):
        self.session_id = validate_session_id(session_id)

    @property
    def kb(self):
        """The current knowledge-base state."""
        return self._kb

    @property
    def vocabulary(self) -> Vocabulary:
        return self._kb.vocabulary

    def state(self) -> dict:
        """The JSON-friendly session summary the serving layer returns."""
        model_set = self._model_set()
        return {
            "id": self.session_id,
            "kind": self.kind,
            "atoms": list(self.vocabulary.atoms),
            "formula": str(minimal_formula(model_set)),
            "models": len(model_set),
            "satisfiable": not model_set.is_empty,
            "steps": self.steps,
        }

    def ask(self, query: FormulaLike) -> str:
        """Three-valued query answer (``yes`` / ``no`` / ``unknown``)."""
        return ask_models(self._model_set(), query)

    def query(self, body: Mapping[str, Any]) -> dict:
        """Answer the query body ``{"op": …}`` as the server does.

        The op is looked up in the family's verb table, which names the
        body field holding its argument: a ``formula``, or a non-empty
        ``sources`` list.  An ``ask`` answers; a change applies and
        answers with the new ``state()``.  A malformed body is a
        :class:`ReproError`, and leaves the session as it was.
        """
        op = body.get("op")
        argument = verb_argument(self.verbs, op, f"{self.kind} sessions")
        value = body.get(argument)
        if argument == "sources" and not (value and isinstance(value, list)):
            raise ReproError(f"{op} needs a non-empty 'sources' list")
        if not value:
            raise ReproError(f"{op} needs a '{argument}'")
        if op == "ask":
            return {"ok": True, "session": self.session_id, "op": op, "answer": self.ask(value)}
        getattr(self, op)(value, **self._options(argument, body))
        return {"ok": True, "op": op, "session": self.state()}

    def _options(self, argument: str, body: Mapping[str, Any]) -> dict:
        """Keyword arguments of a change beyond its formula or sources."""
        return {}

    def to_payload(self) -> dict:
        """The store snapshot (versioned by :mod:`repro.kb.serialize`)."""
        return {"id": self.session_id, "session_kind": self.kind, **self._payload()}

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.session_id!r}, "
            f"atoms={list(self.vocabulary.atoms)}, steps={self.steps})"
        )


class Session(_Session):
    """One client's Boolean theory-change session.

    >>> session = Session("jury-1", atoms=["A", "B", "C"],
    ...                   formula="A & B & (A & B -> C)")
    >>> session.revise("!C")
    KnowledgeBase(A & B & !C, atoms=['A', 'B', 'C'])
    >>> session.kb.satisfiable
    True
    """

    kind = "boolean"
    verbs = VERBS
    logged = True

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
        super().__init__(session_id)
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

    @classmethod
    def from_request(
        cls, body: Mapping[str, Any], registry: ContextRegistry, impl: str
    ) -> "Session":
        """The session a create body asks for (``impl``: the default)."""
        return cls(
            body["id"],
            atoms=body["atoms"],
            formula=body.get("formula", "true"),
            operators=body.get("operators"),
            impl=body.get("impl", impl),
            registry=registry,
        )

    # -- inspection ---------------------------------------------------------

    @property
    def operator_names(self) -> Mapping[str, str]:
        """The per-verb operator configuration."""
        return dict(self._operator_names)

    @property
    def impl(self) -> str:
        return self._impl

    @property
    def steps(self) -> int:
        return len(self._kb.history)

    def _model_set(self) -> ModelSet:
        return self._kb.model_set

    def state(self) -> dict:
        return {**super().state(), "operators": dict(self._operator_names)}

    # -- theory change ------------------------------------------------------

    def _advance(self, kb: KnowledgeBase) -> KnowledgeBase:
        self._kb = kb
        return kb

    def revise(self, new_information: FormulaLike) -> KnowledgeBase:
        return self._advance(self._kb.revise(new_information))

    def update(self, new_information: FormulaLike) -> KnowledgeBase:
        return self._advance(self._kb.update(new_information))

    def fit(self, new_information: FormulaLike) -> KnowledgeBase:
        return self._advance(self._kb.fit(new_information))

    def arbitrate(self, new_information: FormulaLike) -> KnowledgeBase:
        return self._advance(self._kb.arbitrate(new_information))

    def contract(self, retracted: FormulaLike) -> KnowledgeBase:
        return self._advance(self._kb.contract(retracted))

    def erase(self, retracted: FormulaLike) -> KnowledgeBase:
        return self._advance(self._kb.erase(retracted))

    def merge(self, sources: Sequence[FormulaLike]) -> KnowledgeBase:
        return self._advance(self._kb.merge(sources))

    # -- persistence --------------------------------------------------------

    def _payload(self) -> dict:
        from repro.kb.serialize import knowledge_base_to_dict

        return {
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


class WeightedSession(_Session):
    """A weighted (Section 4) session: graded trust instead of model sets.

    The session applies the exact weighted operators directly, without
    the context registry, which holds Boolean execution contexts only.
    It keeps no provenance log, only its step count.
    """

    kind = "weighted"
    verbs: Mapping[str, str] = {
        "fit": "formula", "arbitrate": "formula", "merge": "sources", "ask": "formula"
    }
    logged = False

    def __init__(
        self,
        session_id: str,
        atoms: Sequence[str],
        formula: FormulaLike = "true",
        weight: int = 1,
        _wkb: Optional[WeightedKnowledgeBase] = None,
    ):
        super().__init__(session_id)
        if _wkb is None:
            _wkb = WeightedKnowledgeBase.from_formula(
                as_formula(formula), Vocabulary(list(atoms)), weight=weight
            )
        self._kb = _wkb
        self._fitting = WeightedModelFitting()
        self._arbitration = WeightedArbitration(self._fitting)
        self.steps = 0

    @classmethod
    def from_request(
        cls, body: Mapping[str, Any], registry: ContextRegistry, impl: str
    ) -> "WeightedSession":
        """The session a create body asks for (weighted operators run
        directly: no registry or ``impl``)."""
        return cls(
            body["id"],
            atoms=body["atoms"],
            formula=body.get("formula", "true"),
            weight=_weight(body.get("weight", 1), "'weight' must be an integer"),
        )

    @property
    def wkb(self) -> WeightedKnowledgeBase:
        return self._kb

    def _model_set(self) -> ModelSet:
        return self._kb.support()

    def _options(self, argument: str, body: Mapping[str, Any]) -> dict:
        """A formula's ``weight`` (default 1), or the sources' ``weights``
        (default all 1)."""
        if argument == "formula":
            return {"weight": _weight(body.get("weight", 1), "'weight' must be an integer")}
        raw = body.get("weights")
        if raw is None:
            return {}
        message = "'weights' must be a list of integers"
        if not isinstance(raw, list):
            raise ReproError(message)
        return {"weights": [_weight(value, message) for value in raw]}

    def _incoming(self, formula: FormulaLike, weight: int) -> WeightedKnowledgeBase:
        return WeightedKnowledgeBase.from_formula(
            as_formula(formula), self.vocabulary, weight=weight
        )

    def fit(self, formula: FormulaLike, weight: int = 1) -> WeightedKnowledgeBase:
        """Weighted model-fitting ``ψ̃ ▷ μ̃``."""
        self._kb = self._fitting.apply(self._kb, self._incoming(formula, weight))
        self.steps += 1
        return self._kb

    def arbitrate(
        self, formula: FormulaLike, weight: int = 1
    ) -> WeightedKnowledgeBase:
        """Weighted arbitration ``ψ̃ Δ φ̃``."""
        self._kb = self._arbitration.apply(self._kb, self._incoming(formula, weight))
        self.steps += 1
        return self._kb

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
        self._kb = self._arbitration.merge([self._kb] + incoming)
        self.steps += 1
        return self._kb

    def _payload(self) -> dict:
        from repro.kb.serialize import weighted_kb_to_dict

        return {"steps": self.steps, "kb": weighted_kb_to_dict(self._kb)}

    @classmethod
    def from_payload(
        cls, data: dict, registry: Optional[ContextRegistry] = None
    ) -> "WeightedSession":
        """Inverse of :meth:`to_payload` (``registry`` is unused: weighted
        operators run directly)."""
        from repro.kb.serialize import weighted_kb_from_dict

        wkb = weighted_kb_from_dict(data["kb"])
        steps = data.get("steps", 0)
        if not isinstance(steps, int):
            raise ReproError(f"'steps' must be an integer, got {type(steps).__name__}")
        session = cls(data["id"], atoms=(), _wkb=wkb)
        session.steps = steps
        return session


#: Session kind → class: a create request's kind and a snapshot's
#: ``session_kind`` both resolve here.
SESSION_KINDS: Mapping[str, type[_Session]] = {
    Session.kind: Session, WeightedSession.kind: WeightedSession
}
