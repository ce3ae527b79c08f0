"""Quantification harness: check axioms over scenario spaces.

An axiom's roles are filled with knowledge bases drawn from a *scenario
space*:

* :func:`exhaustive_scenarios` — every tuple of subsets of the
  interpretation space.  There are ``2^(2^|𝒯|)`` knowledge bases up to
  logical equivalence, so this is feasible for |𝒯| ≤ 2 on three-role
  axioms and |𝒯| ≤ 3 on two-role axioms.
* :func:`sampled_scenarios` — seeded uniform sampling for anything larger.

:func:`check_cell` is the one scenario loop, dense or symbolic, that
:func:`repro.engine.pool.run_audit` runs per in-process cell;
:func:`check_axiom` and :func:`audit_operator` are one ``run_audit`` call
each.

The search is semantic: knowledge bases are represented directly by model
sets, which quotients out syntax exactly as the axioms do (axiom
R4/U4/A4 is checked separately at formula level).
"""

from __future__ import annotations

import random
import time
from itertools import islice, product
from typing import Any, Iterable, Iterator, Optional, Sequence

from repro import obs
from repro.engine.chunks import DEFAULT_EXHAUSTIVE_LIMIT, sample_scenario_bits
from repro.engine.resilience import DEFAULT_MAX_RETRIES
from repro.logic.bitsets import model_set_of_bits
from repro.logic.interpretation import Vocabulary, iter_set_bits
from repro.logic.semantics import ModelSet
from repro.operators.base import TheoryChangeOperator
from repro.postulates.axioms import Axiom
from repro.postulates.counterexample import CheckResult, Counterexample

__all__ = [
    "all_model_sets",
    "exhaustive_scenarios",
    "sampled_scenarios",
    "scenario_space",
    "check_cell",
    "check_axiom",
    "audit_operator",
]

#: Scenario-space size above which enumeration switches to sampling
#: (see :func:`scenario_space`).  Shared with the audit engine's planner so
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
    natural probability unless excluded.  Draws through
    :func:`repro.engine.chunks.sample_scenario_bits` one scenario at a
    time, so a shared generator advances only as far as the caller reads.
    """
    generator = rng if isinstance(rng, random.Random) else random.Random(rng)
    total = vocabulary.interpretation_count
    for _ in range(count):
        (scenario,) = sample_scenario_bits(generator, roles, 1, total, include_empty)
        yield tuple(model_set_of_bits(vocabulary, bits) for bits in scenario)


def scenario_space(
    vocabulary: Vocabulary,
    roles: int,
    max_scenarios: int,
    rng: int | random.Random,
) -> tuple[Iterable[tuple[ModelSet, ...]], bool, bool]:
    """``(scenarios, exhaustive, truncated)`` for one check: enumeration
    cut at ``max_scenarios`` when the space fits in ``EXHAUSTIVE_LIMIT``
    tuples, ``max_scenarios`` seeded samples otherwise."""
    space = (1 << vocabulary.interpretation_count) ** roles
    if space > EXHAUSTIVE_LIMIT:
        return sampled_scenarios(vocabulary, roles, max_scenarios, rng), False, False
    exhaustive = space <= max_scenarios
    scenarios = islice(exhaustive_scenarios(vocabulary, roles), max_scenarios)
    return scenarios, exhaustive, not exhaustive


def check_cell(
    operator: TheoryChangeOperator,
    axiom: Axiom,
    vocabulary: Vocabulary,
    max_scenarios: int,
    rng: int | random.Random,
    stop_at_first: bool = True,
    impl: str = "dense",
) -> CheckResult:
    """Check one (operator, axiom) cell in process.

    Returns a :class:`CheckResult` carrying the first counterexample
    found, if any — also under ``stop_at_first=False``, which keeps
    scanning (to count the full space) but still reports the earliest
    failure.  ``impl="symbolic"`` takes its operator wrapper, scenarios
    and densified counterexample from :mod:`repro.symbolic.harness`.
    """
    roles = len(axiom.roles)
    subject: Any = operator
    extra: dict[str, str] = {}
    source: Any = scenario_space
    if impl == "symbolic":
        from repro.symbolic import harness as symbolic

        subject = symbolic.SymbolicOperator(operator)
        source = symbolic.symbolic_scenarios
        extra = {"impl": impl, "scenario_mode": symbolic.scenario_mode(vocabulary)}
    scenarios, exhaustive, truncated = source(vocabulary, roles, max_scenarios, rng)
    checked = 0
    first: Optional[Counterexample] = None
    start = time.perf_counter()
    for scenario in scenarios:
        checked += 1
        counterexample = axiom.check_instance(subject, scenario)
        if counterexample is not None:
            if first is None:
                first = counterexample
            if stop_at_first:
                break
    elapsed = time.perf_counter() - start
    if first is not None and impl == "symbolic":
        first = symbolic.densify(first, vocabulary)
    registry = obs.active()
    if registry is not None:
        registry.counter("harness.checks").inc()
        if impl == "symbolic":
            registry.counter("harness.symbolic_checks").inc()
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
            **extra,
        },
    )


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
    """Check one axiom for one operator over the vocabulary: one
    :func:`repro.engine.pool.run_audit` call.

    The scenarios are :func:`scenario_space`'s — enumeration cut at
    ``max_scenarios`` (``exhaustive`` only when nothing was cut) or seeded
    sampling — and the result carries the first counterexample found,
    also under ``stop_at_first=False``.  ``jobs > 1`` runs the process
    pool, result-identical to the in-process loop; ``chunk_timeout`` /
    ``max_retries`` configure its resilience ladder.  ``impl="symbolic"``
    checks on BDD level sets: result-identical up to 16 atoms, and the
    only mode that completes at 30+.
    """
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
        impl=impl,
    )
    return outcome.results[operator.name][axiom.name]


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
    """Check a whole axiom set for one operator, results keyed by axiom:
    one :func:`repro.engine.pool.run_audit` call, so ``jobs > 1`` runs
    the whole sweep through one process pool."""
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
        impl=impl,
    )
    return outcome.results[operator.name]
