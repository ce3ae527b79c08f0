"""Property-based laws for the paper's operators on random formulas.

Hypothesis drives random formula pairs over a four-atom vocabulary (16
interpretations — large enough to be non-trivial, small enough that every
example is cheap) through both the kernel path (the product operator,
parameter ``True``) and the scalar reference
(:func:`repro.bench.reference.reference_operator`, parameter ``False``):

* arbitration commutativity ``ψ Δ φ ≡ φ Δ ψ`` (immediate from the
  definition ``(ψ ∨ φ) ▷ ⊤`` — Section 3), on both evaluation paths;
* A1 (success): ``Mod(ψ ▷ μ) ⊆ Mod(μ)``;
* A2: unsatisfiable ψ yields an unsatisfiable result;
* the two evaluation paths agree model-for-model (the differential law
  the E9 bench asserts on checksums, here on exact model sets).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from _strategies import formulas, model_sets
from repro.bench.reference import reference_operator
from repro.core.arbitration import ArbitrationOperator
from repro.core.fitting import ReveszFitting
from repro.logic.enumeration import models
from repro.logic.interpretation import Vocabulary
from repro.logic.semantics import ModelSet

VOCAB = Vocabulary(["a", "b", "c", "d"])
NAMES = ("a", "b", "c", "d")

#: Both evaluation paths of the paper's odist fitting ▷: the product
#: operator (``True``) and the scalar reference (``False``).
PATHS = [True, False]


def _fitting(product: bool):
    operator = ReveszFitting()
    return operator if product else reference_operator(operator)


def _models(formula) -> ModelSet:
    return models(formula, VOCAB)


class TestArbitrationCommutativity:
    @pytest.mark.parametrize("product", PATHS)
    @settings(max_examples=200)
    @given(psi=formulas(NAMES, max_leaves=6), phi=formulas(NAMES, max_leaves=6))
    def test_arbitration_commutes(self, product, psi, phi):
        operator = ArbitrationOperator(_fitting(product))
        left = operator.apply_models(_models(psi), _models(phi))
        right = operator.apply_models(_models(phi), _models(psi))
        assert left == right

    @settings(max_examples=200)
    @given(psi=formulas(NAMES, max_leaves=6), phi=formulas(NAMES, max_leaves=6))
    def test_both_paths_agree_on_arbitration(self, psi, phi):
        kernel = ArbitrationOperator(_fitting(True))
        scalar = ArbitrationOperator(_fitting(False))
        psi_models, phi_models = _models(psi), _models(phi)
        assert kernel.apply_models(psi_models, phi_models) == scalar.apply_models(
            psi_models, phi_models
        )


class TestFittingAxioms:
    @pytest.mark.parametrize("product", PATHS)
    @settings(max_examples=200)
    @given(psi=formulas(NAMES, max_leaves=6), mu=formulas(NAMES, max_leaves=6))
    def test_a1_success(self, product, psi, mu):
        """A1: the fitted result never strays outside Mod(μ), and is
        nonempty whenever both arguments are satisfiable."""
        operator = _fitting(product)
        psi_models, mu_models = _models(psi), _models(mu)
        result = operator.apply_models(psi_models, mu_models)
        assert result.issubset(mu_models)
        if not psi_models.is_empty and not mu_models.is_empty:
            assert not result.is_empty

    @pytest.mark.parametrize("product", PATHS)
    @settings(max_examples=200)
    @given(mu=model_sets(VOCAB))
    def test_a2_unsatisfiable_base(self, product, mu):
        """A2: ψ unsatisfiable ⟹ ψ ▷ μ unsatisfiable, for every μ."""
        operator = _fitting(product)
        result = operator.apply_models(ModelSet(VOCAB, []), mu)
        assert result.is_empty

    @settings(max_examples=200)
    @given(psi=model_sets(VOCAB), mu=model_sets(VOCAB))
    def test_both_paths_agree_on_fitting(self, psi, mu):
        """Differential law: vectorized kernels and the scalar reference
        produce identical model sets on arbitrary (ψ, μ)."""
        kernel = _fitting(True)
        scalar = _fitting(False)
        assert kernel.apply_models(psi, mu) == scalar.apply_models(psi, mu)
