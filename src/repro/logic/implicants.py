"""Prime implicants and two-level formula minimization.

The paper's canonical ``form(I₁, …, Iₖ)`` output is a disjunction of
complete cubes — exact but unreadable for more than a few models.  This
module computes the prime implicants of a model set and covers the set
with a (greedily) minimal subset of them, yielding compact, equivalent
formulas for operator results (used by
:meth:`repro.kb.knowledge_base.KnowledgeBase` pretty output and available
to any caller via :func:`minimal_formula`).

Implicants are represented as ``(fixed_mask, value_mask)`` pairs: the
implicant covers every interpretation ``m`` with
``m & fixed_mask == value_mask``.  A fixed bit set to 1 means the atom's
truth value is constrained; unset means "don't care".

Up to :data:`~repro.logic.bitsets.MAX_BITSET_ATOMS` atoms, and above it
on every set that is not sparse (``|models|² ≥ 2^n``), the model set is
packed once into a ``2^n``-bit integer.  The primes are found on it, a
few big-int operations per cube shape
(:func:`repro.logic.bitsets.prime_implicants_of_bits`), and the cover is
chosen on it: each prime becomes one ``2^n``-bit cube, one pass finds the
models covered exactly once, and each greedy step counts the bits a cube
still covers.  This is the path every served ``state()`` takes.  A sparse
set above the cap keeps classic Quine–McCluskey, which merges cubes one
bit apart, and a greedy over sets of masks.  Both paths return the same
sorted primes and the same cover in the same order, so every printed
formula is the same on either.  Both are exponential in the worst case,
which is fine at the paper's scale (the truth-table engine itself stops
at 22 atoms).
"""

from __future__ import annotations

from itertools import groupby

from repro.logic.bitsets import (
    MAX_BITSET_ATOMS,
    atom_masks,
    bits_of_model_set,
    prime_implicants_of_bits,
)
from repro.logic.interpretation import Vocabulary
from repro.logic.semantics import ModelSet
from repro.logic.syntax import (
    BOTTOM,
    TOP,
    Atom,
    Formula,
    Not,
    conjoin,
    disjoin,
)

__all__ = ["Implicant", "prime_implicants", "minimal_cover", "minimal_formula"]

#: ``(fixed_mask, value_mask)`` — see module docstring.
Implicant = tuple[int, int]


def _covers(implicant: Implicant, mask: int) -> bool:
    fixed, value = implicant
    return (mask & fixed) == value


def _merge(left: Implicant, right: Implicant) -> Implicant | None:
    """Combine two implicants differing in exactly one fixed bit."""
    if left[0] != right[0]:
        return None
    difference = left[1] ^ right[1]
    if difference.bit_count() != 1:
        return None
    fixed = left[0] & ~difference
    return (fixed, left[1] & ~difference)


def _packs(model_set: ModelSet) -> bool:
    """Whether the packed kernels serve ``model_set``: always up to
    :data:`~repro.logic.bitsets.MAX_BITSET_ATOMS` atoms, and above the cap
    unless the set is sparse, ``|models|² < 2^n``.

    Quine–McCluskey's first round compares every pair of models, so its
    cost grows with ``|models|²``; the packed kernels' grows with the
    ``2^n`` bits of every integer they touch.
    """
    size = model_set.vocabulary.size
    return size <= MAX_BITSET_ATOMS or len(model_set) ** 2 >= 1 << size


def prime_implicants(model_set: ModelSet) -> list[Implicant]:
    """All prime implicants of the model set, deterministically ordered.

    A prime implicant is a maximal cube lying entirely inside the model
    set.  The empty model set has none; the full space has the single
    empty-constraint implicant ``(0, 0)``.  The cubes are found shape by
    shape on the packed set, or by Quine–McCluskey on a sparse set above
    :data:`~repro.logic.bitsets.MAX_BITSET_ATOMS` atoms.
    """
    if model_set.is_empty:
        return []
    if _packs(model_set):
        return prime_implicants_of_bits(
            bits_of_model_set(model_set), model_set.vocabulary.size
        )
    return _quine_mccluskey(model_set)


def _quine_mccluskey(model_set: ModelSet) -> list[Implicant]:
    """Prime implicants by repeatedly merging cubes one bit apart."""
    full_fixed = (1 << model_set.vocabulary.size) - 1
    current: set[Implicant] = {(full_fixed, mask) for mask in model_set.masks}
    primes: set[Implicant] = set()
    while current:
        merged: set[Implicant] = set()
        used: set[Implicant] = set()
        # Group by fixed mask; only same-shape cubes can merge.
        ordered = sorted(current)
        for shape, group_iter in groupby(ordered, key=lambda imp: imp[0]):
            group = list(group_iter)
            for i, left in enumerate(group):
                for right in group[i + 1 :]:
                    combined = _merge(left, right)
                    if combined is not None:
                        merged.add(combined)
                        used.add(left)
                        used.add(right)
        primes.update(current - used)
        current = merged
    return sorted(primes)


def minimal_cover(model_set: ModelSet) -> list[Implicant]:
    """A small prime-implicant cover of the model set.

    Essential primes (sole coverers of some model) are taken first, in
    the order of the lowest model each covers alone; the remainder is
    covered greedily by descending coverage, ties broken by the larger
    implicant.  Greedy set cover is within a log factor of optimal —
    exact minimality is NP-hard and unnecessary for display purposes.
    The packed and the set-based greedy choose the same list.
    """
    if model_set.is_empty:
        return []
    if _packs(model_set):
        size = model_set.vocabulary.size
        bits = bits_of_model_set(model_set)
        return _packed_cover(bits, prime_implicants_of_bits(bits, size), size)
    return _greedy_cover(_quine_mccluskey(model_set), model_set.masks)


def _packed_cover(
    bits: int, primes: list[Implicant], size: int
) -> list[Implicant]:
    """The greedy cover of the packed set ``bits``, each prime one
    ``2^size``-bit cube."""
    masks = atom_masks(size)
    everything = (1 << (1 << size)) - 1
    cubes = []
    for fixed, value in primes:
        cube = everything
        for step, high, low in masks:
            if fixed & step:
                cube &= high if value & step else low
        cubes.append(cube)
    once = twice = 0
    for cube in cubes:
        twice |= once & cube
        once |= cube
    alone = once & ~twice
    # Each essential prime keyed by the lowest model only it covers.
    essential = sorted(
        (own & -own, prime, cube)
        for prime, cube in zip(primes, cubes)
        if (own := cube & alone)
    )
    chosen = [prime for _, prime, _ in essential]
    remaining = bits
    for _, _, cube in essential:
        remaining &= ~cube
    while remaining:
        gain, best, cube = max(
            ((cube & remaining).bit_count(), prime, cube)
            for prime, cube in zip(primes, cubes)
        )
        if not gain:
            # Cannot happen for a correct prime set; guard against loops.
            raise AssertionError("prime implicants fail to cover the model set")
        chosen.append(best)
        remaining &= ~cube
    return chosen


def _greedy_cover(primes: list[Implicant], masks) -> list[Implicant]:
    """The greedy cover of the model masks ``masks``, on sets of masks."""
    remaining = set(masks)
    coverage: dict[Implicant, set[int]] = {
        prime: {mask for mask in remaining if _covers(prime, mask)}
        for prime in primes
    }
    chosen: list[Implicant] = []

    # Essential primes.
    for mask in sorted(remaining):
        coverers = [prime for prime in primes if mask in coverage[prime]]
        if len(coverers) == 1 and coverers[0] not in chosen:
            chosen.append(coverers[0])
    for prime in chosen:
        remaining -= coverage[prime]

    # Greedy completion, deterministic tie-break on the implicant itself.
    while remaining:
        best = max(
            primes,
            key=lambda prime: (len(coverage[prime] & remaining), prime),
        )
        gain = coverage[best] & remaining
        if not gain:
            # Cannot happen for a correct prime set; guard against loops.
            raise AssertionError("prime implicants fail to cover the model set")
        chosen.append(best)
        remaining -= gain
    return chosen


def _implicant_formula(implicant: Implicant, vocabulary: Vocabulary) -> Formula:
    fixed, value = implicant
    literals: list[Formula] = []
    for index, name in enumerate(vocabulary.atoms):
        bit = 1 << index
        if fixed & bit:
            atom = Atom(name)
            literals.append(atom if value & bit else Not(atom))
    return conjoin(literals)


def minimal_formula(model_set: ModelSet) -> Formula:
    """A compact DNF formula with exactly the given models.

    Equivalent to the paper's ``form(...)`` but usually far smaller: the
    disjunction of a near-minimal prime-implicant cover.

    >>> from repro.logic.interpretation import Vocabulary
    >>> from repro.logic.semantics import ModelSet
    >>> v = Vocabulary(["a", "b"])
    >>> str(minimal_formula(ModelSet(v, [0b01, 0b11])))
    'a'
    """
    if model_set.is_empty:
        return BOTTOM
    if model_set.is_universe:
        return TOP
    cover = minimal_cover(model_set)
    return disjoin(
        _implicant_formula(implicant, model_set.vocabulary) for implicant in cover
    )
