"""Scenario planning: split an audit's scenario space into chunks.

The audit engine evaluates scenarios in fixed-size chunks so that work can
be sharded across processes while staying *deterministic*: a chunk is
identified purely by data — an index range for enumerated spaces, a
captured RNG state for sampled ones — so any worker (or the parent, in
serial mode) regenerates exactly the scenarios the legacy single-loop
harness would have produced, in the same global order.

Two scenario modes, mirroring :mod:`repro.postulates.harness`:

* ``enumerate`` — the space of ``kb_universe ** roles`` tuples is small
  enough to enumerate.  A chunk is an index range; scenario ``i`` decodes
  by mixed-radix expansion of ``i`` (first role varies slowest, matching
  ``itertools.product`` order).
* ``sample`` — seeded uniform sampling.  Planning fast-forwards the single
  seeded stream chunk by chunk, capturing ``Random.getstate()`` at each
  boundary; a worker restores the state and regenerates its chunk, so the
  concatenation of all chunks is bit-identical to one serial stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.logic.interpretation import Vocabulary

__all__ = [
    "DEFAULT_EXHAUSTIVE_LIMIT",
    "DEFAULT_CHUNK_SIZE",
    "ChunkSpec",
    "ScenarioPlan",
    "WeightedScenarioPlan",
    "plan_scenarios",
    "plan_weighted_scenarios",
    "sample_scenario_bits",
    "sample_weight_maps",
    "decode_chunk",
    "decode_weighted_chunk",
    "plan_fingerprint",
]

#: Scenario-space size above which enumeration switches to sampling.  The
#: postulate harness re-exports this as ``EXHAUSTIVE_LIMIT``.
DEFAULT_EXHAUSTIVE_LIMIT = 300_000

#: Scenarios per chunk.  Small enough that a 5 000-scenario audit yields
#: roughly ten chunks per cell (resume and early-cancellation
#: granularity).  A pooled Boolean sweep dispatches one task per
#: operator and chunk ordinal, carrying that chunk of every axiom, so
#: the pool sees about ten tasks per operator (two at 1 000 scenarios;
#: a sweep with fewer tasks than workers splits them by axiom), and a
#: task's dispatch and journal fsync are shared by its axioms.
#: Journals record the chunk size, so changing it refuses older ones.
DEFAULT_CHUNK_SIZE = 512


@dataclass(frozen=True)
class ChunkSpec:
    """One shard of a scenario space.

    ``start`` is the global index of the chunk's first scenario;
    ``rng_state`` is the sampling stream's captured state at that boundary
    (``None`` for enumerated chunks, which decode from the index alone).
    """

    ordinal: int
    start: int
    count: int
    rng_state: Optional[tuple] = None


@dataclass(frozen=True)
class ScenarioPlan:
    """A chunked description of one (axiom-arity) scenario space."""

    roles: int
    interpretation_count: int
    kb_universe: int
    total: int
    mode: str  # "enumerate" | "sample"
    exhaustive: bool
    chunks: tuple[ChunkSpec, ...]


def sample_scenario_bits(
    generator: random.Random,
    roles: int,
    count: int,
    interpretation_count: int,
    include_empty: bool = True,
) -> list[tuple[int, ...]]:
    """``count`` sampled scenarios as tuples of knowledge-base bit-vectors.

    The one definition of the Boolean sampling stream, including the
    mid-scenario rejection of empty knowledge bases when excluded: the
    harness's ``sampled_scenarios`` draws through it one scenario at a
    time, and planning-time fast-forwarding and worker-side regeneration
    draw through it chunk by chunk, so all three stay aligned.
    """
    out: list[tuple[int, ...]] = []
    while len(out) < count:
        scenario: list[int] = []
        acceptable = True
        for _ in range(roles):
            bits = generator.getrandbits(interpretation_count)
            if bits == 0 and not include_empty:
                acceptable = False
                break
            scenario.append(bits)
        if acceptable:
            out.append(tuple(scenario))
    return out


def plan_scenarios(
    vocabulary: Vocabulary,
    roles: int,
    max_scenarios: int,
    rng: int | random.Random = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> ScenarioPlan:
    """Chunk the scenario space for one axiom arity.

    Enumerates when the full space fits in ``exhaustive_limit`` tuples
    (truncating enumeration at ``max_scenarios``; the plan is marked
    ``exhaustive`` only when nothing was cut), otherwise samples
    ``max_scenarios`` tuples.  A ``Random`` instance is consumed
    ``max_scenarios`` scenarios deep, up front; the audit engine passes a
    fresh one per cell.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    interpretation_count = vocabulary.interpretation_count
    kb_universe = 1 << interpretation_count
    space = kb_universe**roles
    if space <= exhaustive_limit:
        mode = "enumerate"
        total = min(space, max_scenarios)
        exhaustive = space <= max_scenarios
    else:
        mode = "sample"
        total = max_scenarios
        exhaustive = False
    generator: Optional[random.Random] = None
    if mode == "sample":
        generator = rng if isinstance(rng, random.Random) else random.Random(rng)
    chunks: list[ChunkSpec] = []
    start = 0
    while start < total:
        count = min(chunk_size, total - start)
        state = None
        if generator is not None:
            state = generator.getstate()
            # Fast-forward the stream past this chunk so the next boundary
            # state is exactly where a serial run would be.
            sample_scenario_bits(generator, roles, count, interpretation_count)
        chunks.append(ChunkSpec(len(chunks), start, count, state))
        start += count
    return ScenarioPlan(
        roles=roles,
        interpretation_count=interpretation_count,
        kb_universe=kb_universe,
        total=total,
        mode=mode,
        exhaustive=exhaustive,
        chunks=tuple(chunks),
    )


def _decode_enumerated(
    start: int, count: int, roles: int, kb_universe: int
) -> Iterator[tuple[int, ...]]:
    for index in range(start, start + count):
        digits = []
        remaining = index
        for position in range(roles - 1, -1, -1):
            place = kb_universe**position
            digits.append(remaining // place)
            remaining %= place
        yield tuple(digits)


def decode_chunk(plan: ScenarioPlan, chunk: ChunkSpec) -> list[tuple[int, ...]]:
    """Materialize a chunk's scenarios as tuples of knowledge-base bits.

    Enumerated chunks decode by mixed radix (first role is the most
    significant digit, so global order equals ``itertools.product`` over
    ``all_model_sets``); sampled chunks replay the captured RNG state.
    """
    if plan.mode == "enumerate":
        return list(
            _decode_enumerated(chunk.start, chunk.count, plan.roles, plan.kb_universe)
        )
    replay = random.Random()
    replay.setstate(chunk.rng_state)
    return sample_scenario_bits(
        replay, plan.roles, chunk.count, plan.interpretation_count
    )


def plan_fingerprint(plan: ScenarioPlan) -> dict:
    """A JSON-safe structural identity of one unit's chunk plan.

    Used by the audit journal's config digest: two plans with the same
    fingerprint decode the same global-index → scenario map (sampled
    plans additionally need the same integer seed, which the journal
    digests separately), so journaled chunk ordinals stay meaningful
    across processes.
    """
    return {
        "roles": plan.roles,
        "interpretation_count": plan.interpretation_count,
        "kb_universe": plan.kb_universe,
        "total": plan.total,
        "mode": plan.mode,
        "exhaustive": plan.exhaustive,
        "chunks": [[chunk.start, chunk.count] for chunk in plan.chunks],
    }


# -- weighted scenario spaces -------------------------------------------------------
#
# The weighted-KB space is infinite (weights are unbounded rationals), so
# weighted audits are always sampled; chunking therefore always rides the
# captured-RNG-state mechanism.  The stream below is draw-for-draw
# identical to ``repro.postulates.weighted_axioms.random_weighted_kbs``
# (which delegates here), so the concatenation of all chunks reproduces
# the legacy serial pool exactly.


@dataclass(frozen=True)
class WeightedScenarioPlan:
    """A chunked description of one weighted (axiom-arity) scenario space."""

    roles: int
    interpretation_count: int
    total: int
    max_weight: int
    density: float
    include_unsatisfiable: bool
    chunks: tuple[ChunkSpec, ...]


def sample_weight_maps(
    generator: random.Random,
    count: int,
    interpretation_count: int,
    max_weight: int = 5,
    density: float = 0.5,
    include_unsatisfiable: bool = True,
) -> list[dict[int, int]]:
    """``count`` sampled weight functions as ``mask -> weight`` dicts.

    Each interpretation independently receives a positive integer weight
    in ``1..max_weight`` with probability ``density``; an all-zero map is
    redrawn when excluded.  Draws exactly the same stream values, in the
    same order, as the legacy ``random_weighted_kbs`` sampler, so
    planning-time fast-forwarding and worker-side regeneration stay
    aligned with the serial loop.
    """
    out: list[dict[int, int]] = []
    while len(out) < count:
        weights: dict[int, int] = {}
        for mask in range(interpretation_count):
            if generator.random() < density:
                weights[mask] = generator.randint(1, max_weight)
        if not weights and not include_unsatisfiable:
            continue
        out.append(weights)
    return out


def plan_weighted_scenarios(
    vocabulary: Vocabulary,
    roles: int,
    scenarios: int,
    rng: int | random.Random = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    max_weight: int = 5,
    density: float = 0.5,
    include_unsatisfiable: bool = True,
) -> WeightedScenarioPlan:
    """Chunk a weighted scenario space for one axiom arity.

    The legacy harness draws one flat pool of ``scenarios * roles``
    weighted KBs and slices consecutive ``roles``-tuples out of it; the
    plan fast-forwards that single stream chunk by chunk (in whole
    scenarios, i.e. ``count * roles`` maps at a time), capturing
    ``Random.getstate()`` at each boundary.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    generator = rng if isinstance(rng, random.Random) else random.Random(rng)
    interpretation_count = vocabulary.interpretation_count
    chunks: list[ChunkSpec] = []
    start = 0
    while start < scenarios:
        count = min(chunk_size, scenarios - start)
        state = generator.getstate()
        sample_weight_maps(
            generator,
            count * roles,
            interpretation_count,
            max_weight,
            density,
            include_unsatisfiable,
        )
        chunks.append(ChunkSpec(len(chunks), start, count, state))
        start += count
    return WeightedScenarioPlan(
        roles=roles,
        interpretation_count=interpretation_count,
        total=scenarios,
        max_weight=max_weight,
        density=density,
        include_unsatisfiable=include_unsatisfiable,
        chunks=tuple(chunks),
    )


def decode_weighted_chunk(
    plan: WeightedScenarioPlan, chunk: ChunkSpec
) -> list[tuple[dict[int, int], ...]]:
    """Materialize a weighted chunk's scenarios as ``roles``-tuples of
    weight maps by replaying the captured RNG state."""
    replay = random.Random()
    replay.setstate(chunk.rng_state)
    maps = sample_weight_maps(
        replay,
        chunk.count * plan.roles,
        plan.interpretation_count,
        plan.max_weight,
        plan.density,
        plan.include_unsatisfiable,
    )
    return [
        tuple(maps[index * plan.roles + offset] for offset in range(plan.roles))
        for index in range(chunk.count)
    ]
