"""Quantification harness: check axioms over scenario spaces.

An axiom's roles are filled with knowledge bases drawn from a *scenario
space*:

* :func:`exhaustive_scenarios` — every tuple of subsets of the
  interpretation space.  There are ``2^(2^|𝒯|)`` knowledge bases up to
  logical equivalence, so this is feasible for |𝒯| ≤ 2 on three-role
  axioms and |𝒯| ≤ 3 on two-role axioms.
* :func:`sampled_scenarios` — seeded uniform sampling for anything larger.

The search is semantic: knowledge bases are represented directly by model
sets, which quotients out syntax exactly as the axioms do (axiom
R4/U4/A4 is checked separately at formula level).
"""

from __future__ import annotations

import random
import time
from itertools import islice, product
from typing import Iterable, Iterator, Optional, Sequence

from repro import obs
from repro.engine.chunks import DEFAULT_EXHAUSTIVE_LIMIT
from repro.errors import ReproError
from repro.engine.resilience import DEFAULT_MAX_RETRIES
from repro.logic.interpretation import Vocabulary, iter_set_bits
from repro.logic.semantics import ModelSet
from repro.operators.base import TheoryChangeOperator
from repro.postulates.axioms import Axiom
from repro.postulates.counterexample import CheckResult, Counterexample

__all__ = [
    "all_model_sets",
    "exhaustive_scenarios",
    "sampled_scenarios",
    "check_axiom",
    "audit_operator",
]

#: Scenario-space size above which enumeration switches to sampling
#: (see :func:`check_axiom`).  Shared with the audit engine's planner so
#: serial and parallel runs pick the same mode.
EXHAUSTIVE_LIMIT = DEFAULT_EXHAUSTIVE_LIMIT


def all_model_sets(
    vocabulary: Vocabulary, include_empty: bool = True
) -> list[ModelSet]:
    """Every knowledge base over the vocabulary, as model sets.

    ``2^(2^|𝒯|)`` sets — 4 for one atom, 16 for two, 256 for three.  The
    empty set (the unsatisfiable KB) is included by default because several
    axioms (A2, R3) quantify over it.
    """
    count = vocabulary.interpretation_count
    sets: list[ModelSet] = []
    for bits in range(1 << count):
        if bits == 0 and not include_empty:
            continue
        sets.append(ModelSet(vocabulary, iter_set_bits(bits)))
    return sets


def exhaustive_scenarios(
    vocabulary: Vocabulary, roles: int, include_empty: bool = True
) -> Iterator[tuple[ModelSet, ...]]:
    """All ``roles``-tuples of knowledge bases over the vocabulary."""
    universe = all_model_sets(vocabulary, include_empty)
    return product(universe, repeat=roles)


def sampled_scenarios(
    vocabulary: Vocabulary,
    roles: int,
    count: int,
    rng: int | random.Random,
    include_empty: bool = True,
) -> Iterator[tuple[ModelSet, ...]]:
    """``count`` seeded-random ``roles``-tuples of knowledge bases.

    Each knowledge base is a uniformly random subset of the interpretation
    space (biased neither sparse nor dense); the empty KB appears with its
    natural probability unless excluded.
    """
    generator = rng if isinstance(rng, random.Random) else random.Random(rng)
    total = vocabulary.interpretation_count
    produced = 0
    while produced < count:
        scenario: list[ModelSet] = []
        acceptable = True
        for _ in range(roles):
            bits = generator.getrandbits(total)
            if bits == 0 and not include_empty:
                acceptable = False
                break
            scenario.append(ModelSet(vocabulary, iter_set_bits(bits)))
        if acceptable:
            produced += 1
            yield tuple(scenario)


def check_axiom(
    operator: TheoryChangeOperator,
    axiom: Axiom,
    vocabulary: Vocabulary,
    max_scenarios: int = 50_000,
    rng: int | random.Random = 0,
    stop_at_first: bool = True,
    jobs: int = 1,
    chunk_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    impl: str = "dense",
) -> CheckResult:
    """Check one axiom for one operator over the vocabulary.

    Enumerates the scenario space when it fits in ``EXHAUSTIVE_LIMIT``
    tuples, truncating enumeration at ``max_scenarios`` (the result is
    marked ``exhaustive`` only when nothing was cut); larger spaces use
    seeded sampling of ``max_scenarios`` tuples.  Returns a
    :class:`CheckResult` carrying the first counterexample found, if any —
    also under ``stop_at_first=False``, which keeps scanning (to count the
    full space) but still reports the earliest failure.

    ``jobs > 1`` routes through the parallel audit engine
    (:func:`repro.engine.pool.run_audit`), whose merge is
    deterministic and result-identical to this serial loop;
    ``chunk_timeout`` / ``max_retries`` configure its resilience ladder
    (ignored on the serial path).

    ``impl="symbolic"`` runs the whole check on BDD level sets
    (:func:`repro.symbolic.check_axiom_symbolic`): result-identical here
    up to 16 atoms, and the only mode that completes at 30+.  Symbolic
    checks are serial (nodes live in one manager), so ``jobs`` must be 1.
    """
    from repro.session.dispatch import ensure_impl

    ensure_impl(impl, ("dense", "symbolic"))
    if impl == "symbolic":
        if jobs > 1:
            raise ReproError(
                "impl='symbolic' is serial (shared BDD manager); use jobs=1"
            )
        from repro.symbolic import check_axiom_symbolic

        return check_axiom_symbolic(
            operator,
            axiom,
            vocabulary,
            max_scenarios=max_scenarios,
            rng=rng,
            stop_at_first=stop_at_first,
        )
    if jobs > 1:
        from repro.engine.pool import run_audit

        outcome = run_audit(
            [operator],
            [axiom],
            vocabulary,
            max_scenarios=max_scenarios,
            rng=rng,
            stop_at_first=stop_at_first,
            jobs=jobs,
            chunk_timeout=chunk_timeout,
            max_retries=max_retries,
        )
        return outcome.results[operator.name][axiom.name]
    roles = len(axiom.roles)
    space = (1 << vocabulary.interpretation_count) ** roles
    truncated = False
    if space <= EXHAUSTIVE_LIMIT:
        scenarios: Iterable[tuple[ModelSet, ...]] = islice(
            exhaustive_scenarios(vocabulary, roles), max_scenarios
        )
        exhaustive = space <= max_scenarios
        truncated = not exhaustive
    else:
        scenarios = sampled_scenarios(vocabulary, roles, max_scenarios, rng)
        exhaustive = False
    checked = 0
    first: Optional[Counterexample] = None
    start = time.perf_counter()
    for scenario in scenarios:
        checked += 1
        counterexample = axiom.check_instance(operator, scenario)
        if counterexample is not None:
            if first is None:
                first = counterexample
            if stop_at_first:
                break
    elapsed = time.perf_counter() - start
    registry = obs.active()
    if registry is not None:
        registry.counter("harness.checks").inc()
        registry.counter("harness.scenarios").inc(checked)
        registry.histogram("harness.check_seconds").observe(elapsed)
        if truncated:
            registry.counter("harness.truncated_checks").inc()
    return CheckResult(
        axiom=axiom.name,
        operator=operator.name,
        holds=first is None,
        scenarios_checked=checked,
        exhaustive=exhaustive,
        counterexample=first,
        metrics={
            "scenarios_checked": checked,
            "truncated": truncated,
            "elapsed_seconds": elapsed,
        },
    )


def audit_operator(
    operator: TheoryChangeOperator,
    axioms: Sequence[Axiom],
    vocabulary: Vocabulary,
    max_scenarios: int = 50_000,
    rng: int | random.Random = 0,
    jobs: int = 1,
    chunk_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    impl: str = "dense",
) -> dict[str, CheckResult]:
    """Check a whole axiom set for one operator; results keyed by axiom.

    With ``jobs > 1`` the whole sweep runs through one process pool (one
    roster shipment, shared per-worker caches) instead of per-axiom.
    ``impl="symbolic"`` audits on BDD level sets (serial; ``jobs`` must
    stay 1).
    """
    from repro.session.dispatch import ensure_impl

    ensure_impl(impl, ("dense", "symbolic"))
    if impl == "symbolic":
        if jobs > 1:
            raise ReproError(
                "impl='symbolic' is serial (shared BDD manager); use jobs=1"
            )
        from repro.symbolic import audit_operator_symbolic

        return audit_operator_symbolic(
            operator, axioms, vocabulary, max_scenarios=max_scenarios, rng=rng
        )
    if jobs > 1:
        from repro.engine.pool import run_audit

        outcome = run_audit(
            [operator],
            axioms,
            vocabulary,
            max_scenarios=max_scenarios,
            rng=rng,
            jobs=jobs,
            chunk_timeout=chunk_timeout,
            max_retries=max_retries,
        )
        return outcome.results[operator.name]
    results: dict[str, CheckResult] = {}
    for axiom in axioms:
        results[axiom.name] = check_axiom(
            operator, axiom, vocabulary, max_scenarios, rng
        )
    return results
