"""Unit tests for prime implicants and formula minimization."""

import math

import pytest
import hypothesis.strategies as st
from hypothesis import given

from repro.logic import implicants
from repro.logic.bitsets import bits_of_model_set, prime_implicants_of_bits

from repro.logic.enumeration import models
from repro.logic.implicants import (
    minimal_cover,
    minimal_formula,
    prime_implicants,
)
from repro.logic.interpretation import Vocabulary
from repro.logic.parser import parse
from repro.logic.semantics import ModelSet
from repro.logic.syntax import BOTTOM, TOP, Atom, formula_size

from _strategies import model_sets

VOCAB = Vocabulary(["a", "b", "c"])


class TestPrimeImplicants:
    def test_empty_set_has_none(self):
        assert prime_implicants(ModelSet.empty(VOCAB)) == []

    def test_universe_has_unconstrained_prime(self):
        assert prime_implicants(ModelSet.universe(VOCAB)) == [(0, 0)]

    def test_single_model_is_its_own_prime(self):
        ms = ModelSet(VOCAB, [0b101])
        assert prime_implicants(ms) == [(0b111, 0b101)]

    def test_adjacent_models_merge(self):
        # {a}, {a,b}: b is don't-care, a fixed true, c fixed false.
        ms = ModelSet(VOCAB, [0b001, 0b011])
        assert prime_implicants(ms) == [(0b101, 0b001)]

    def test_classic_consensus_shape(self):
        # Mod(a&b | !a&c) — primes include the consensus term b&c.
        ms = models(parse("(a & b) | (!a & c)"), VOCAB)
        primes = prime_implicants(ms)
        # b&c (fixed b,c true; a free) must be among the primes.
        assert (0b110, 0b110) in primes
        assert len(primes) == 3

    def test_primes_lie_inside_model_set(self):
        ms = models(parse("a -> (b & c)"), VOCAB)
        for fixed, value in prime_implicants(ms):
            for mask in range(8):
                if (mask & fixed) == value:
                    assert mask in ms


class TestMinimalCover:
    def test_cover_covers_exactly(self):
        ms = models(parse("(a & b) | (!a & c)"), VOCAB)
        cover = minimal_cover(ms)
        covered = {
            mask
            for mask in range(8)
            for fixed, value in cover
            if (mask & fixed) == value
        }
        assert covered == set(ms.masks)

    def test_consensus_term_excluded_from_cover(self):
        # b&c is a prime of (a&b | !a&c) but never needed in a cover.
        ms = models(parse("(a & b) | (!a & c)"), VOCAB)
        cover = minimal_cover(ms)
        assert (0b110, 0b110) not in cover
        assert len(cover) == 2

    def test_empty(self):
        assert minimal_cover(ModelSet.empty(VOCAB)) == []


class TestMinimalFormula:
    def test_constants(self):
        assert minimal_formula(ModelSet.empty(VOCAB)) == BOTTOM
        assert minimal_formula(ModelSet.universe(VOCAB)) == TOP

    def test_single_atom_recovered(self):
        ms = models(parse("a"), VOCAB)
        assert minimal_formula(ms) == Atom("a")

    def test_negated_atom_recovered(self):
        from repro.logic.syntax import Not

        ms = models(parse("!b"), VOCAB)
        assert minimal_formula(ms) == Not(Atom("b"))

    @given(model_sets(VOCAB))
    def test_exactly_the_given_models(self, ms):
        assert models(minimal_formula(ms), VOCAB) == ms

    @given(model_sets(VOCAB))
    def test_never_larger_than_full_form(self, ms):
        from repro.logic.enumeration import form_formula

        assert formula_size(minimal_formula(ms)) <= formula_size(form_formula(ms))

    def test_operator_results_read_compactly(self):
        """The motivating use: arbitration output over the intro example
        minimizes to a readable formula."""
        from repro.core.arbitration import ArbitrationOperator

        vocabulary = Vocabulary(["A", "B", "C"])
        psi = models(parse("A & B & (A & B -> C)"), vocabulary)
        phi = models(parse("!C"), vocabulary)
        consensus = ArbitrationOperator().apply_models(psi, phi)
        compact = minimal_formula(consensus)
        assert models(compact, vocabulary) == consensus
        # (A & !C) | (B & !C) — 9 nodes, versus 3 full cubes (~20 nodes).
        assert formula_size(compact) <= 9


def _vocabulary(size: int) -> Vocabulary:
    return Vocabulary([f"x{index}" for index in range(size)])


def _set_based_cover(model_set: ModelSet) -> list:
    return implicants._greedy_cover(prime_implicants(model_set), model_set.masks)


@st.composite
def _packed_model_sets(draw):
    """Model sets over 1–12 atoms: sparse, dense (a complement), or a
    union of random cubes, which overlap."""
    size = draw(st.integers(min_value=1, max_value=12))
    total = 1 << size
    shape = draw(st.sampled_from(["sparse", "dense", "cubes"]))
    if shape == "cubes":
        masks: set[int] = set()
        for _ in range(draw(st.integers(min_value=1, max_value=6))):
            fixed = draw(st.integers(min_value=0, max_value=total - 1))
            value = draw(st.integers(min_value=0, max_value=total - 1)) & fixed
            masks.update(m for m in range(total) if m & fixed == value)
    else:
        masks = draw(st.sets(st.integers(min_value=0, max_value=total - 1), max_size=40))
        if shape == "dense":
            masks = set(range(total)) - masks
    return ModelSet(_vocabulary(size), masks)


class TestPackedCoverMatchesSetGreedy:
    """The packed cover picks the set-based greedy's primes, in its order
    (``state()`` prints them in that order)."""

    @given(_packed_model_sets())
    def test_random_sets(self, model_set):
        assert minimal_cover(model_set) == _set_based_cover(model_set)

    @pytest.mark.parametrize("size", range(1, 13))
    def test_one_model(self, size):
        model_set = ModelSet(_vocabulary(size), [0b1011_0110_1101 & ((1 << size) - 1)])
        assert minimal_cover(model_set) == _set_based_cover(model_set)

    @pytest.mark.parametrize("size", range(1, 13))
    def test_universe_minus_one_model(self, size):
        total = 1 << size
        model_set = ModelSet(_vocabulary(size), [m for m in range(total) if m != total // 3])
        assert minimal_cover(model_set) == _set_based_cover(model_set)

    @pytest.mark.parametrize("size", range(3, 13))
    def test_overlapping_cubes(self, size):
        # x0 & x1 | x1 & x2 | ...: neighbouring cubes overlap, so most
        # models have two coverers and few primes are essential.
        vocabulary = _vocabulary(size)
        formula = " | ".join(
            f"x{index} & x{index + 1}" for index in range(size - 1)
        )
        model_set = models(parse(formula), vocabulary)
        assert minimal_cover(model_set) == _set_based_cover(model_set)


@st.composite
def _sparse_wide_model_sets(draw):
    """Sets over 13–14 atoms with ``|models|² < 2^n``: scattered models,
    or a union of small random cubes."""
    size = draw(st.integers(min_value=13, max_value=14))
    total = 1 << size
    if draw(st.booleans()):
        masks = draw(st.sets(st.integers(min_value=0, max_value=total - 1), max_size=80))
    else:
        masks = set()
        for _ in range(draw(st.integers(min_value=1, max_value=8))):
            free = draw(st.lists(st.integers(0, size - 1), max_size=3, unique=True))
            base = draw(st.integers(min_value=0, max_value=total - 1))
            for pick in range(1 << len(free)):
                mask = base
                for index, atom in enumerate(free):
                    mask = mask & ~(1 << atom) | (pick >> index & 1) << atom
                masks.add(mask)
    return ModelSet(_vocabulary(size), masks)


class TestDensityRule:
    """Above 12 atoms the packed kernels serve every set that is not
    sparse; Quine–McCluskey keeps the sparse ones."""

    @pytest.mark.parametrize("size", [13, 14])
    def test_dense_wide_sets_never_reach_quine_mccluskey(self, size, monkeypatch):
        def refuse(model_set):
            raise AssertionError("Quine–McCluskey ran on a dense set")

        monkeypatch.setattr(implicants, "_quine_mccluskey", refuse)
        vocabulary = _vocabulary(size)
        model_set = models(parse("!x0 & !x1"), vocabulary)
        assert prime_implicants(model_set) == [(0b11, 0)]
        assert str(minimal_formula(model_set)) == "!x0 & !x1"
        scattered = ModelSet(vocabulary, range(0, 1 << size, 61))
        assert len(scattered) ** 2 >= 1 << size
        assert minimal_cover(scattered) == [((1 << size) - 1, mask) for mask in scattered.masks]

    @pytest.mark.parametrize("size", [13, 14, 20])
    def test_the_rule_is_on_models_squared_against_two_to_the_n(self, size):
        vocabulary = _vocabulary(size)
        edge = math.isqrt((1 << size) - 1) + 1  # least count with edge² ≥ 2^n
        assert implicants._packs(ModelSet(vocabulary, range(edge)))
        assert not implicants._packs(ModelSet(vocabulary, range(edge - 1)))

    @given(_sparse_wide_model_sets())
    def test_sparse_wide_sets_agree_on_both_paths(self, model_set):
        assert not implicants._packs(model_set)
        size = model_set.vocabulary.size
        bits = bits_of_model_set(model_set)
        primes = implicants._quine_mccluskey(model_set)
        assert prime_implicants_of_bits(bits, size) == primes
        cover = implicants._greedy_cover(primes, model_set.masks)
        assert implicants._packed_cover(bits, primes, size) == cover
        assert minimal_cover(model_set) == cover
