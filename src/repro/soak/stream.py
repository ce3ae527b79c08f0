"""Deterministic change-stream generation for the soak harness.

A soak stream is fully determined by a :class:`SoakConfig`: every draw —
step kind, formula shape, merge fan-in — comes from one seeded
``random.Random`` consumed strictly in step order.  That gives the same
contract the audit engine's scenario plans rely on: the stream position
is captured entirely by ``Random.getstate()``, so journaling the state at
a chunk boundary lets a killed run resume draw-identically.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.logic.interpretation import Vocabulary
from repro.logic.random_formulas import random_satisfiable_formula
from repro.logic.syntax import Formula

__all__ = [
    "STEP_KINDS",
    "STEP_WEIGHTS",
    "SoakConfig",
    "SoakStep",
    "draw_step",
    "encode_rng_state",
    "decode_rng_state",
]

#: The four change verbs a stream mixes, with their relative frequencies.
#: Revision and arbitration dominate (they are the paper's focus); merges
#: are rarer but exercise the n-ary consensus path.
STEP_KINDS: tuple[str, ...] = ("revise", "update", "arbitrate", "merge")
STEP_WEIGHTS: tuple[int, ...] = (35, 25, 30, 10)


@dataclass(frozen=True)
class SoakConfig:
    """Everything that determines a soak stream and its check schedule.

    Two configs are stream-compatible iff they are equal — the journal
    refuses to resume under a different config, because any field here
    changes either the draws or the ledger.
    """

    seed: int = 0
    steps: int = 10_000
    atoms: int = 5
    chunk_size: int = 256
    depth: int = 3
    commute_every: int = 16
    roundtrip_every: int = 64
    trace_window: int = 8

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ReproError(f"steps must be non-negative, got {self.steps}")
        if self.atoms < 1:
            raise ReproError(f"atoms must be positive, got {self.atoms}")
        if self.chunk_size < 1:
            raise ReproError(f"chunk_size must be positive, got {self.chunk_size}")
        if self.commute_every < 1 or self.roundtrip_every < 1:
            raise ReproError("check cadences must be positive")
        if self.trace_window < 2:
            raise ReproError(f"trace_window must be at least 2, got {self.trace_window}")

    def vocabulary(self) -> Vocabulary:
        """The fixed 𝒯 the whole stream ranges over (``a``, ``b``, …)."""
        return Vocabulary([chr(ord("a") + index) for index in range(self.atoms)])

    def to_dict(self) -> dict[str, Any]:
        """The config as the plain dict a soak journal's manifest keys on."""
        return asdict(self)


def encode_rng_state(state: tuple) -> list:
    """``Random.getstate()`` as plain JSON (tuples become lists)."""
    version, internal, gauss_next = state
    return [version, list(internal), gauss_next]


def decode_rng_state(data: Any) -> tuple:
    """Inverse of :func:`encode_rng_state`; anything ``Random.setstate``
    would not restore is refused with a :class:`ReproError`."""
    try:
        version, internal, gauss_next = data
        state = (version, tuple(internal), gauss_next)
        if version != random.Random.VERSION or not isinstance(gauss_next, (float, type(None))):
            raise ValueError(f"not a version {random.Random.VERSION} state")
        random.Random().setstate(state)
    except (TypeError, ValueError, OverflowError) as error:
        raise ReproError(f"malformed rng_state: {error}") from error
    return state


@dataclass(frozen=True)
class SoakStep:
    """One drawn change step: a verb plus its incoming formula(s).

    ``formulas`` has one entry for the binary verbs and two or three for
    ``merge`` (the knowledge base itself is always an implicit voice).
    """

    index: int
    kind: str
    formulas: tuple[Formula, ...] = field(compare=False)


def draw_step(
    index: int,
    generator: random.Random,
    vocabulary: Vocabulary,
    depth: int,
) -> SoakStep:
    """Draw step ``index`` from the stream.

    All incoming formulas are satisfiable (an unsatisfiable witness tells
    the jury nothing), so the knowledge base provably stays satisfiable
    along the whole stream and the A2 consistency check has teeth.
    """
    kind = generator.choices(STEP_KINDS, weights=STEP_WEIGHTS, k=1)[0]
    if kind == "merge":
        fan_in = generator.randint(2, 3)
        formulas = tuple(
            random_satisfiable_formula(vocabulary, depth, generator)
            for _ in range(fan_in)
        )
    else:
        formulas = (random_satisfiable_formula(vocabulary, depth, generator),)
    return SoakStep(index=index, kind=kind, formulas=formulas)
