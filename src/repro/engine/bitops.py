"""Vectorized axiom evaluation on packed knowledge bases.

A knowledge base over a vocabulary with ``k`` interpretations is one
integer in ``[0, 2^k)`` (bit ``m`` set ⇔ mask ``m`` is a model), so the
model-set algebra every axiom checker performs — intersection, union,
subset, emptiness — collapses to ``&``, ``|``, ``x & ~y == 0``, and
``x == 0`` on whole numpy ``int64`` arrays of scenarios at once.

Each evaluator takes a *lookup* — an elementwise vectorized
``ψ-bits, μ-bits → result-bits`` of the operator under audit — plus one
array per axiom role, and returns a boolean array marking the failing
scenarios of the chunk.  The formulas transcribe the scalar checkers in
:mod:`repro.postulates.axioms` literally (including their guard clauses,
which become boolean conjuncts), so a ``True`` entry is exactly a scenario
on which ``Axiom.check_instance`` returns a counterexample.

:class:`ApplyTable` supplies the lookup: a lazily-filled dense
``universe × universe`` table over a :class:`~repro.engine.batched.
BatchedOperator`, viable whenever the knowledge-base universe is small
(|𝒯| ≤ 3 ⇒ at most 256 × 256 entries).  Larger universes use the scalar
chunk loop in :mod:`repro.engine.pool` instead.
"""

from __future__ import annotations

try:  # pragma: no cover - numpy is baked into the container
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

from repro.engine.batched import BatchedOperator

__all__ = [
    "ApplyTable",
    "BIT_EVALUATORS",
    "TABLE_UNIVERSE_LIMIT",
    "full_apply_table",
    "supports_table",
]

#: Largest knowledge-base universe (2^(2^|𝒯|)) for which the dense apply
#: table is built: 256 × 256 int64 = 512 KiB, i.e. vocabularies of ≤ 3
#: atoms — the regime every shipped audit runs in.
TABLE_UNIVERSE_LIMIT = 256


def supports_table(kb_universe: int) -> bool:
    """Whether the dense-table path applies to this universe size."""
    return np is not None and kb_universe <= TABLE_UNIVERSE_LIMIT


class ApplyTable:
    """Dense memo of ``operator.apply_bits`` over the whole KB universe.

    Entries are filled on demand: a lookup over a chunk first resolves the
    distinct missing (ψ, μ) pairs through the batched operator, then
    answers the whole chunk with one fancy-indexing read.  ``-1`` marks
    an unfilled entry (valid results are non-negative bit-vectors).
    """

    def __init__(self, operator: BatchedOperator, kb_universe: int, shared=None):
        if not supports_table(kb_universe):
            raise ValueError(
                f"apply table unsupported for universe of {kb_universe} knowledge bases"
            )
        self._operator = operator
        if shared is not None and getattr(shared, "shape", None) == (
            kb_universe,
            kb_universe,
        ):
            # A fully prefilled arena table (see full_apply_table): may be
            # a read-only shared-memory view; lookups then never write.
            self._table = shared
        else:
            self._table = np.full((kb_universe, kb_universe), -1, dtype=np.int64)

    @property
    def operator(self) -> BatchedOperator:
        """The batched operator backing the table."""
        return self._operator

    @property
    def filled(self) -> int:
        """Number of entries resolved so far."""
        return int((self._table >= 0).sum())

    def lookup(self, psi_bits, mu_bits):
        """Elementwise ``apply_bits`` over two equal-length int64 arrays."""
        values = self._table[psi_bits, mu_bits]
        missing = values < 0
        if missing.any():
            if not self._table.flags.writeable:
                # A shared prefilled table is complete by construction;
                # reaching here means it was built for another contract —
                # degrade to a private copy rather than corrupt (or crash
                # on) the read-only mapping.
                self._table = self._table.copy()
            # One integer key per (ψ, μ) pair, deduped as a Python set
            # (the first ``np.unique`` of a process imports numpy.ma) and
            # filled in sorted (ψ, μ) order.
            universe = self._table.shape[1]
            keys = psi_bits[missing] * universe + mu_bits[missing]
            for key in sorted(set(keys.tolist())):
                psi, mu = divmod(key, universe)
                self._table[psi, mu] = self._operator.apply_bits(psi, mu)
            values = self._table[psi_bits, mu_bits]
        return values


def full_apply_table(operator: BatchedOperator, kb_universe: int):
    """The *complete* ``apply_bits`` table of a matrix-batched operator.

    Built once in the parent (one vectorized pass per satisfiable ψ) so
    an arena can publish it and workers skip the lazy per-worker fill.
    Exactness: for each ψ the operator's own memoized key vector is
    rank-converted (keys may be scalars or tuples — ``leximax``/``row``
    aggregators — so comparison order, not magnitude, is what matters)
    and every μ's minimal-key models are selected with the same
    all-argmin tie rule as ``BatchedOperator._compute_bits``; the ψ = 0
    row replicates the family-dependent unsatisfiable-ψ branch.
    """
    if not supports_table(kb_universe):
        raise ValueError(
            f"apply table unsupported for universe of {kb_universe} knowledge bases"
        )
    if not operator.batched:
        raise ValueError(
            f"full_apply_table needs a matrix-batched operator, got {operator.name!r}"
        )
    n_masks = operator.vocabulary.interpretation_count
    mask_index = np.arange(n_masks, dtype=np.int64)
    mu_values = np.arange(kb_universe, dtype=np.int64)
    # member[mu, m] ⇔ interpretation mask m is a model of μ.
    member = ((mu_values[:, None] >> mask_index[None, :]) & 1).astype(bool)
    weights = np.int64(1) << mask_index
    sentinel = np.iinfo(np.int64).max
    table = np.empty((kb_universe, kb_universe), dtype=np.int64)
    table[0, :] = 0 if operator.unsat_base == "empty" else mu_values
    for psi_bits in range(1, kb_universe):
        keys = operator.keys_for_bits(psi_bits)
        order = {key: rank for rank, key in enumerate(sorted(set(keys)))}
        ranks = np.array([order[key] for key in keys], dtype=np.int64)
        keyed = np.where(member, ranks[None, :], sentinel)
        best = keyed.min(axis=1)
        # μ = 0 rows have no members, so best stays at the sentinel and
        # the selection below is empty — exactly apply_bits' μ = 0 → 0.
        table[psi_bits, :] = ((keyed == best[:, None]) & member) @ weights
    return table


# -- per-axiom failure predicates ---------------------------------------------
#
# Each function mirrors one scalar checker; `L` is the vectorized lookup.
# All arrays are int64 KB bit-vectors; `~` is safe because every result is
# ANDed against a genuine KB value before comparison.


def _fail_success(L, psi, mu):
    # R1/U1/A1: result must imply μ.
    return (L(psi, mu) & ~mu) != 0


def _fail_r2(L, psi, mu):
    both = psi & mu
    return (both != 0) & (L(psi, mu) != both)


def _fail_r3(L, psi, mu):
    return (mu != 0) & (L(psi, mu) == 0)


def _fail_joint(L, psi, mu):
    # U3/A3: satisfiable ψ and μ must give a satisfiable result.
    return (psi != 0) & (mu != 0) & (L(psi, mu) == 0)


def _fail_conj_lower(L, psi, mu, phi):
    # R5/U5/A5: (ψ*μ) ∧ φ implies ψ*(μ∧φ).
    left = L(psi, mu) & phi
    return (left & ~L(psi, mu & phi)) != 0


def _fail_conj_upper(L, psi, mu, phi):
    # R6/A6: if (ψ*μ) ∧ φ satisfiable, ψ*(μ∧φ) implies it.
    left = L(psi, mu) & phi
    return (left != 0) & ((L(psi, mu & phi) & ~left) != 0)


def _fail_u2(L, psi, mu):
    return ((psi & ~mu) == 0) & (L(psi, mu) != psi)


def _fail_u6(L, psi, mu1, mu2):
    result1 = L(psi, mu1)
    result2 = L(psi, mu2)
    return (
        ((result1 & ~mu2) == 0) & ((result2 & ~mu1) == 0) & (result1 != result2)
    )


def _fail_u7(L, psi, mu1, mu2):
    singleton = (psi != 0) & ((psi & (psi - 1)) == 0)
    left = L(psi, mu1) & L(psi, mu2)
    return singleton & ((left & ~L(psi, mu1 | mu2)) != 0)


def _fail_u8(L, psi1, psi2, mu):
    return L(psi1 | psi2, mu) != (L(psi1, mu) | L(psi2, mu))


def _fail_a2(L, psi, mu):
    return (psi == 0) & (L(psi, mu) != 0)


def _fail_a7(L, psi1, psi2, mu):
    left = L(psi1, mu) & L(psi2, mu)
    return (left & ~L(psi1 | psi2, mu)) != 0


def _fail_a8(L, psi1, psi2, mu):
    left = L(psi1, mu) & L(psi2, mu)
    return (left != 0) & ((L(psi1 | psi2, mu) & ~left) != 0)


#: Axiom name → vectorized failure predicate.  Covers every axiom in the
#: registries; R4/U4/A4 are formula-level and never reach the harness.
BIT_EVALUATORS = {
    "R1": _fail_success,
    "R2": _fail_r2,
    "R3": _fail_r3,
    "R5": _fail_conj_lower,
    "R6": _fail_conj_upper,
    "U1": _fail_success,
    "U2": _fail_u2,
    "U3": _fail_joint,
    "U5": _fail_conj_lower,
    "U6": _fail_u6,
    "U7": _fail_u7,
    "U8": _fail_u8,
    "A1": _fail_success,
    "A2": _fail_a2,
    "A3": _fail_joint,
    "A5": _fail_conj_lower,
    "A6": _fail_conj_upper,
    "A7": _fail_a7,
    "A8": _fail_a8,
}
