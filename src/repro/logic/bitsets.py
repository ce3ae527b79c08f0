"""Model sets packed into one integer, and two kernels over them.

Over a vocabulary of ``n`` atoms a model set packs into one ``2^n``-bit
integer: bit ``m`` is set iff the interpretation with mask ``m`` is a
member (the dense audit engine's knowledge-base encoding).  Python's
big-int operators then act on the whole set at once, and two primitives
cost a handful of them per atom:

* :func:`translate` — the XOR-translation ``S ⊕ J = {m ⊕ J : m ∈ S}``
  of a set by one interpretation (a block swap per atom of ``J``);
* :func:`strict_up` — the interpretations that are strict supersets of
  some member (an upward closure, then one more atom).

Two kernels are built on them:

* :func:`pointwise_minimal` — ``⋃_{J ∈ ψ} Min(μ, ≤J)`` where
  ``I ≤J I'`` iff ``I Δ J ⊆ I' Δ J``: Winslett's update, and Borgida's
  revision when ψ ∧ μ is inconsistent.  With ``D = μ ⊕ J`` the
  ⊆-minimal differences are ``D & ~strict_up(D)``, translated back by
  ``J``.
* :func:`prime_implicants_of_bits` — every prime implicant, found by cube
  shape: with ``C_F`` the cubes of free-atom set ``F`` inside the set
  (as the bitset of their bases, free bits cleared),
  ``C_{F∪{a}} = C_F & (C_F >> 2^a)``, and a cube is prime when no cube
  with one more free atom covers it.  One pass over the atoms outside
  each shape finds both its wider shapes and its primes.

Both kernels do ``O(n)`` big-int operations per ψ-model or per cube
shape on ``2^n``-bit integers.  Winslett's update takes this path up to
:data:`MAX_BITSET_ATOMS` atoms and keeps its sparse per-model code above
it, where the ``2^n``-bit integers outgrow small model sets.  The prime
implicants, and the cover :mod:`repro.logic.implicants` chooses on cubes
built from :func:`atom_masks`, take it up to the cap and, above it, on
every set that is not sparse (``|models|² ≥ 2^n``).
"""

from __future__ import annotations

from functools import lru_cache

from repro.logic.interpretation import Vocabulary, iter_set_bits
from repro.logic.semantics import ModelSet

__all__ = [
    "MAX_BITSET_ATOMS",
    "atom_masks",
    "bits_of_model_set",
    "model_set_of_bits",
    "pointwise_minimal",
    "prime_implicants_of_bits",
    "strict_up",
    "translate",
]

#: Largest vocabulary on which callers use these kernels whatever the
#: set; it equals the dense engine's matrix cap
#: (:data:`repro.engine.batched.MAX_BATCH_ATOMS`).  At 16–20 atoms the
#: ``2^n``-bit integers make the kernels lose to the sparse per-model
#: loops on small model sets.
MAX_BITSET_ATOMS = 12

#: Per atom ``a``: ``(2^a, high, low)`` — see :func:`atom_masks`.
AtomMasks = tuple[tuple[int, int, int], ...]


def bits_of_model_set(model_set: ModelSet) -> int:
    """Pack a model set into one integer (bit ``m`` ⇔ mask ``m``)."""
    bits = 0
    for mask in model_set.masks:
        bits |= 1 << mask
    return bits


def model_set_of_bits(vocabulary: Vocabulary, bits: int) -> ModelSet:
    """Unpack an integer from :func:`bits_of_model_set` into a model set."""
    return ModelSet(vocabulary, iter_set_bits(bits))


@lru_cache(maxsize=MAX_BITSET_ATOMS + 1)
def atom_masks(size: int) -> AtomMasks:
    """Per atom ``a`` of a ``size``-atom vocabulary: ``(2^a, high, low)``.

    ``high`` is the set of interpretations that make ``a`` true and
    ``low`` its complement in the ``2^size`` interpretations.  Built once
    per vocabulary size.
    """
    width = 1 << size
    masks = []
    for atom in range(size):
        step = 1 << atom
        high = ((1 << step) - 1) << step
        period = step << 1
        while period < width:
            high |= high << period
            period <<= 1
        masks.append((step, high, ((1 << width) - 1) ^ high))
    return tuple(masks)


def translate(bits: int, by: int, masks: AtomMasks) -> int:
    """``{m ⊕ by : m ∈ bits}``: swap the two halves of every atom in ``by``."""
    for step, high, low in masks:
        if by & step:
            bits = ((bits & high) >> step) | ((bits & low) << step)
    return bits


def strict_up(bits: int, masks: AtomMasks) -> int:
    """``{m : ∃ s ∈ bits, s ⊊ m}`` — the strict supersets of the members."""
    for step, _, low in masks:
        bits |= (bits & low) << step
    above = 0
    for step, _, low in masks:
        above |= (bits & low) << step
    return above


def pointwise_minimal(psi: int, mu: int, size: int) -> int:
    """``⋃_{J ∈ ψ} Min(μ, ≤J)`` with ``I ≤J I'`` iff ``I Δ J ⊆ I' Δ J``.

    A ψ-model inside μ keeps itself (its difference is empty); any other
    keeps the μ-models whose difference from it is ⊆-minimal.
    """
    masks = atom_masks(size)
    chosen = psi & mu
    for model in iter_set_bits(psi & ~mu):
        diffs = translate(mu, model, masks)
        chosen |= translate(diffs & ~strict_up(diffs, masks), model, masks)
    return chosen


def prime_implicants_of_bits(bits: int, size: int) -> list[tuple[int, int]]:
    """All prime implicants ``(fixed_mask, value_mask)``, sorted.

    Shapes (free-atom sets) are visited by size, in one pass each over
    the atoms outside the shape, in ascending order of the shape's mask.
    Per atom, ``grown`` is the shape one atom wider (its cubes inside
    the set), and the cubes it covers are not prime.  For an atom above
    the shape's highest free atom it is derived and kept for the next
    level.  For one below, the wider shape was already derived, from the
    sibling with that atom in place of the highest one, whose mask is
    smaller; when that sibling has no cube, neither has the wider shape.
    So each shape is derived once.
    """
    masks = atom_masks(size)
    full = (1 << size) - 1
    primes: list[tuple[int, int]] = []
    level = {0: bits} if bits else {}
    while level:
        wider: dict[int, int] = {}
        for free in sorted(level):
            cubes = level[free]
            covered = 0
            for step, _, low in masks:
                if step > free:
                    grown = cubes & (cubes >> step) & low
                    if grown:
                        wider[free | step] = grown
                elif not free & step:
                    grown = wider.get(free | step, 0)
                else:
                    continue
                if grown:
                    covered |= grown | (grown << step)
            fixed = full ^ free
            primes.extend((fixed, base) for base in iter_set_bits(cubes & ~covered))
        level = wider
    primes.sort()
    return primes
