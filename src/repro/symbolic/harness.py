"""Symbolic postulate auditing: `check_axiom` at 30+ atoms.

Symbolic checks run through :func:`repro.engine.pool.run_audit` and the
dense harness's scenario loop (:func:`repro.postulates.harness.check_cell`)
like dense ones; this module supplies the scenario source, the
:class:`SymbolicOperator` wrapper and the densified counterexample.
Scenarios come in two regimes, chosen by vocabulary size:

* **Mask mode** (``|T| ≤ MASK_SCENARIO_MAX_ATOMS``): consume the *exact*
  scenario stream of the dense harness — the same
  ``exhaustive_scenarios`` enumeration order or the same seeded
  ``getrandbits`` draws — lifting each dense knowledge base onto the
  shared BDD manager.  Verdicts, ``scenarios_checked``, the
  ``exhaustive`` flag, and the FIRST counterexample (densified back to
  dense model sets) are all identical to the dense run by construction;
  the differential suite enforces it cell-exactly.
* **Formula mode** (above the cap): a dense knowledge base is a
  ``2^|T|``-bit random integer, which at 30 atoms does not fit anywhere —
  so scenarios are sampled as seeded random *formulas* instead and built
  directly as BDD nodes.  This is the regime no dense backend can touch.

The checkers themselves are the unmodified
:mod:`repro.postulates.axioms` callables: they receive
:class:`SymbolicModelSet` scenarios and a :class:`SymbolicOperator`, and
every set operation they perform stays symbolic.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Sequence

from repro.errors import ReproError
from repro.logic.bdd import BddManager, manager_for
from repro.logic.bitsets import bits_of_model_set
from repro.logic.interpretation import Vocabulary
from repro.logic.random_formulas import random_formula
from repro.logic.semantics import ModelSet
from repro.operators.base import TheoryChangeOperator
from repro.postulates.axioms import Axiom
from repro.postulates.counterexample import CheckResult, Counterexample
from repro.symbolic.operators import SymbolicOperator
from repro.symbolic.sets import SymbolicModelSet

__all__ = [
    "MASK_SCENARIO_MAX_ATOMS",
    "DEFAULT_FORMULA_DEPTH",
    "SymbolicOperator",
    "lift_model_set",
    "sampled_symbolic_scenarios",
    "scenario_mode",
    "symbolic_scenarios",
    "densify",
    "check_axiom_symbolic",
    "audit_operator_symbolic",
]

#: Largest vocabulary for which scenarios are drawn as knowledge-base
#: bit-vectors (dense-stream parity); above it, scenarios are random
#: formulas.  16 atoms means 65536-bit scenario integers — still cheap —
#: while keeping the parity window comfortably wider than anything the
#: dense backend can audit.
MASK_SCENARIO_MAX_ATOMS = 16

#: Random-formula depth for formula-mode scenarios: deep enough for
#: structure (shared subformulas, contradictions, tautologies), shallow
#: enough that one scenario stays milliseconds at 30+ atoms.
DEFAULT_FORMULA_DEPTH = 5


def lift_model_set(manager: BddManager, model_set: ModelSet) -> SymbolicModelSet:
    """Lift one dense knowledge base onto the shared manager."""
    bits = bits_of_model_set(model_set)
    return SymbolicModelSet(manager, manager.from_truth_bits(bits))


def sampled_symbolic_scenarios(
    vocabulary: Vocabulary,
    roles: int,
    count: int,
    rng: int | random.Random,
    depth: int = DEFAULT_FORMULA_DEPTH,
) -> Iterator[tuple[SymbolicModelSet, ...]]:
    """``count`` seeded scenarios of random-formula knowledge bases, as
    symbolic model sets — the large-vocabulary replacement for
    :func:`repro.postulates.harness.sampled_scenarios`."""
    generator = rng if isinstance(rng, random.Random) else random.Random(rng)
    manager = manager_for(vocabulary)
    for _ in range(count):
        scenario = tuple(
            SymbolicModelSet(
                manager,
                manager.from_formula(random_formula(vocabulary, depth, generator)),
            )
            for _ in range(roles)
        )
        yield scenario


def scenario_mode(vocabulary: Vocabulary) -> str:
    """``"mask"`` up to :data:`MASK_SCENARIO_MAX_ATOMS` atoms (the dense
    stream, lifted), ``"formula"`` above (random formulas)."""
    return "mask" if vocabulary.size <= MASK_SCENARIO_MAX_ATOMS else "formula"


def symbolic_scenarios(
    vocabulary: Vocabulary,
    roles: int,
    max_scenarios: int,
    rng: int | random.Random,
) -> tuple[Iterable[tuple[SymbolicModelSet, ...]], bool, bool]:
    """:func:`repro.postulates.harness.scenario_space` for symbolic
    checks: its stream and flags lifted in mask mode, random formulas in
    formula mode."""
    if scenario_mode(vocabulary) == "formula":
        scenarios = sampled_symbolic_scenarios(vocabulary, roles, max_scenarios, rng)
        return scenarios, False, False
    from repro.postulates.harness import scenario_space

    dense, exhaustive, truncated = scenario_space(vocabulary, roles, max_scenarios, rng)
    manager = manager_for(vocabulary)
    lifted = (
        tuple(lift_model_set(manager, role_set) for role_set in scenario)
        for scenario in dense
    )
    return lifted, exhaustive, truncated


def densify(counterexample: Counterexample, vocabulary: Vocabulary) -> Counterexample:
    """Replace symbolic sets with dense ones so mask-mode counterexamples
    compare equal to the dense harness's; formula-mode ones stay symbolic."""
    if scenario_mode(vocabulary) == "formula":
        return counterexample

    def dense(value):
        return value.to_model_set() if isinstance(value, SymbolicModelSet) else value

    return Counterexample(
        axiom=counterexample.axiom,
        operator=counterexample.operator,
        roles={role: dense(value) for role, value in counterexample.roles.items()},
        observed={
            label: dense(value) for label, value in counterexample.observed.items()
        },
        explanation=counterexample.explanation,
    )


def check_axiom_symbolic(
    operator: TheoryChangeOperator,
    axiom: Axiom,
    vocabulary: Vocabulary,
    max_scenarios: int = 50_000,
    rng: int | random.Random = 0,
    stop_at_first: bool = True,
) -> CheckResult:
    """Symbolic mirror of :func:`repro.postulates.harness.check_axiom`.

    In mask mode the result (verdict, scenario count, exhaustive flag,
    first counterexample) is identical to the dense serial harness; in
    formula mode the verdict is sampled evidence over a different —
    necessarily symbolic — scenario distribution.
    """
    from repro.engine.pool import run_audit

    outcome = run_audit(
        [operator],
        [axiom],
        vocabulary,
        max_scenarios=max_scenarios,
        rng=rng,
        stop_at_first=stop_at_first,
        impl="symbolic",
    )
    return outcome.results[operator.name][axiom.name]


def audit_operator_symbolic(
    operator: TheoryChangeOperator,
    axioms: Sequence[Axiom],
    vocabulary: Vocabulary,
    max_scenarios: int = 50_000,
    rng: int | random.Random = 0,
) -> dict[str, CheckResult]:
    """Symbolic mirror of :func:`repro.postulates.harness.audit_operator`."""
    from repro.engine.pool import run_audit

    outcome = run_audit(
        [operator],
        axioms,
        vocabulary,
        max_scenarios=max_scenarios,
        rng=rng,
        impl="symbolic",
    )
    return outcome.results[operator.name]


def ensure_symbolic_roster(
    operators: Sequence[TheoryChangeOperator],
) -> list[TheoryChangeOperator]:
    """Validate that every operator has a symbolic execution; raise a
    :class:`ReproError` naming the offenders otherwise."""
    from repro.symbolic.operators import supports_symbolic

    unsupported = [op.name for op in operators if not supports_symbolic(op)]
    if unsupported:
        raise ReproError(
            "no symbolic execution for operator(s): "
            + ", ".join(sorted(unsupported))
            + " (per-model ⊆-minimal and non-Hamming operators are dense-only)"
        )
    return list(operators)
