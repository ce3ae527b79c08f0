"""``repro.session`` — the session core: one dispatch rule, shared engines.

The library grew three execution tiers (scalar reference, vectorized
:class:`~repro.engine.batched.BatchedOperator`, symbolic BDD) that call
sites used to select and wire ad hoc.  This package is the load-bearing
middle layer between them and every consumer:

* :mod:`repro.session.dispatch` — the single ``impl`` validation and
  ``auto``/``dense``/``symbolic`` resolution rule
  (:func:`resolve_backend`), which ``TheoryChangeOperator.apply``, the
  postulate harness, and the CLI all route through;
* :mod:`repro.session.registry` — LRU-bounded resolution of
  ``(operator, vocabulary, impl)`` to a shared
  :class:`ExecutionContext` (one distance matrix / one BDD manager per
  key, ``cache.session.contexts.*`` observability).  Only sessions
  route through it, and they hold no context themselves, so the LRU
  bound is the memory ceiling;
* :mod:`repro.session.session` — :class:`Session` /
  :class:`WeightedSession`, the per-client state the serving layer
  (:mod:`repro.serve`) holds and persists.
"""

from repro.session.dispatch import (
    AUTO,
    DENSE,
    SYMBOLIC,
    ensure_impl,
    resolve_backend,
)
from repro.session.registry import (
    DEFAULT_MAX_CONTEXTS,
    ContextRegistry,
    ExecutionContext,
    default_registry,
)
from repro.session.session import (
    DEFAULT_OPERATOR_NAMES,
    OPERATOR_FACTORIES,
    Session,
    WeightedSession,
    operator_by_name,
)

__all__ = [
    "AUTO",
    "DENSE",
    "SYMBOLIC",
    "ensure_impl",
    "resolve_backend",
    "DEFAULT_MAX_CONTEXTS",
    "ContextRegistry",
    "ExecutionContext",
    "default_registry",
    "OPERATOR_FACTORIES",
    "DEFAULT_OPERATOR_NAMES",
    "operator_by_name",
    "Session",
    "WeightedSession",
]
