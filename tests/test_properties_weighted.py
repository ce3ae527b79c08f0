"""Property-based laws for the weighted algebra (Section 4).

Hypothesis drives random integer-weighted knowledge bases over a
three-atom vocabulary through the exact connectives:

* ``⊔`` is commutative and associative with ``zero`` as identity;
* ``⊓`` is idempotent and commutative;
* ``support(ψ̃ ⊔ φ̃) = support(ψ̃) ∪ support(φ̃)``.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.weighted import WeightedKnowledgeBase
from repro.logic.interpretation import Vocabulary

VOCAB = Vocabulary(["a", "b", "c"])
COUNT = VOCAB.interpretation_count


def integer_kbs() -> st.SearchStrategy[WeightedKnowledgeBase]:
    """Random small-integer weight functions (the audit samplers' domain)."""
    return st.dictionaries(
        st.integers(min_value=0, max_value=COUNT - 1),
        st.integers(min_value=1, max_value=9),
        max_size=COUNT,
    ).map(lambda weights: WeightedKnowledgeBase(VOCAB, weights))


class TestJoinLaws:
    @settings(max_examples=100)
    @given(psi=integer_kbs(), phi=integer_kbs())
    def test_join_commutes(self, psi, phi):
        assert psi.join(phi).equivalent(phi.join(psi))

    @settings(max_examples=100)
    @given(psi=integer_kbs(), phi=integer_kbs(), chi=integer_kbs())
    def test_join_associates(self, psi, phi, chi):
        left = psi.join(phi).join(chi)
        right = psi.join(phi.join(chi))
        assert left.equivalent(right)

    @settings(max_examples=100)
    @given(psi=integer_kbs())
    def test_zero_is_join_identity(self, psi):
        zero = WeightedKnowledgeBase.zero(VOCAB)
        assert psi.join(zero).equivalent(psi)
        assert zero.join(psi).equivalent(psi)

    @settings(max_examples=100)
    @given(psi=integer_kbs(), phi=integer_kbs())
    def test_join_support_is_union(self, psi, phi):
        joined = psi.join(phi)
        assert joined.support() == psi.support() | phi.support()


class TestMeetLaws:
    @settings(max_examples=100)
    @given(psi=integer_kbs())
    def test_meet_idempotent(self, psi):
        assert psi.meet(psi).equivalent(psi)

    @settings(max_examples=100)
    @given(psi=integer_kbs(), phi=integer_kbs())
    def test_meet_commutes(self, psi, phi):
        assert psi.meet(phi).equivalent(phi.meet(psi))
