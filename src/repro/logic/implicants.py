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

Up to :data:`~repro.logic.bitsets.MAX_BITSET_ATOMS` atoms the primes are
found on the model set packed into one ``2^n``-bit integer, a few big-int
operations per cube shape (:func:`repro.logic.bitsets.prime_implicants_of_bits`);
this is the path every served ``state()`` takes.  Above that cap, where
the packed integers outgrow small model sets, classic Quine–McCluskey
merges cubes one bit apart.  Both return the same sorted list, so the
cover and every printed formula are the same on either path.  Both are
exponential in the worst case, which is fine at the paper's scale (the
truth-table engine itself stops at 22 atoms).
"""

from __future__ import annotations

from itertools import groupby

from repro.logic.bitsets import (
    MAX_BITSET_ATOMS,
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


def prime_implicants(model_set: ModelSet) -> list[Implicant]:
    """All prime implicants of the model set, deterministically ordered.

    A prime implicant is a maximal cube lying entirely inside the model
    set.  The empty model set has none; the full space has the single
    empty-constraint implicant ``(0, 0)``.  Up to
    :data:`~repro.logic.bitsets.MAX_BITSET_ATOMS` atoms the cubes are
    found shape by shape on the packed set; above it by Quine–McCluskey.
    """
    if model_set.is_empty:
        return []
    size = model_set.vocabulary.size
    if size <= MAX_BITSET_ATOMS:
        return prime_implicants_of_bits(bits_of_model_set(model_set), size)
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

    Essential primes (sole coverers of some model) are taken first; the
    remainder is covered greedily by descending coverage.  Greedy set
    cover is within a log factor of optimal — exact minimality is NP-hard
    and unnecessary for display purposes.
    """
    primes = prime_implicants(model_set)
    if not primes:
        return []
    remaining = set(model_set.masks)
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
