import math

import pytest

from athermal import (
    AthermalityState,
    ExtendedBeta,
    GibbsContext,
    ProbabilityVector,
    validate_state,
)
from athermal.errors import (
    AthermalError,
    DimensionMismatch,
    NegativeEntry,
    NormalizationOutOfTolerance,
    RankDeficientGibbs,
)


class TestProbabilityVector:
    def test_renormalizes_exactly(self):
        p = ProbabilityVector((0.3, 0.3, 0.4 - 1e-12))
        assert math.fsum(p.entries) == 1.0

    def test_rejects_negative_entry(self):
        with pytest.raises(NegativeEntry):
            ProbabilityVector((1.1, -0.1))

    def test_rejects_bad_normalization(self):
        with pytest.raises(NormalizationOutOfTolerance):
            ProbabilityVector((0.5, 0.6))

    def test_dim(self):
        assert ProbabilityVector((0.25, 0.25, 0.5)).dim == 3


class TestGibbsContext:
    def test_sorts_energies_ascending(self):
        ctx = GibbsContext((2.0, 0.0, 1.0), 1.0)
        assert ctx.energies == (0.0, 1.0, 2.0)

    def test_permutation_reorders_paired_data(self):
        ctx = GibbsContext((2.0, 0.0, 1.0), 1.0)
        assert ctx.apply_permutation([0.2, 0.3, 0.5]) == (0.3, 0.5, 0.2)

    def test_stable_on_ties(self):
        ctx = GibbsContext((1.0, 1.0, 0.0), 1.0)
        assert ctx.apply_permutation([10, 20, 30]) == (30, 10, 20)

    def test_ground_degeneracy(self):
        assert GibbsContext((0.0, 0.0, 1.0), 1.0).ground_degeneracy() == 2

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(AthermalError):
            GibbsContext((0.0, 1.0), 0.0)


class TestValidateState:
    def test_accepts_matching_dims(self):
        st = validate_state((0.9, 0.1), (0.8, 0.2))
        assert isinstance(st, AthermalityState)

    def test_rejects_mismatched_dims(self):
        with pytest.raises(DimensionMismatch):
            validate_state((0.9, 0.1), (0.5, 0.3, 0.2))

    def test_rejects_zero_gibbs_entry(self):
        with pytest.raises(RankDeficientGibbs):
            validate_state((0.5, 0.5), (1.0, 0.0))

    def test_free_state(self):
        g = (0.7, 0.3)
        assert validate_state(g, g).is_free
        assert not validate_state((0.8, 0.2), g).is_free


class TestExtendedBeta:
    def test_ordering(self):
        assert ExtendedBeta.neg_inf() < ExtendedBeta.finite(-5.0)
        assert ExtendedBeta.finite(-5.0) < ExtendedBeta.finite(2.0)
        assert ExtendedBeta.finite(2.0) < ExtendedBeta.pos_inf()

    def test_json_forms(self):
        assert ExtendedBeta.finite(1.5).to_json() == 1.5
        assert ExtendedBeta.pos_inf().to_json() == "+inf"
        assert ExtendedBeta.neg_inf().to_json() == "-inf"

    def test_is_finite(self):
        assert ExtendedBeta.finite(0.0).is_finite
        assert not ExtendedBeta.pos_inf().is_finite

    def test_negation_reflects_order(self):
        assert -ExtendedBeta.finite(1.5) == ExtendedBeta.finite(-1.5)
        assert -ExtendedBeta.pos_inf() == ExtendedBeta.neg_inf()
        assert -ExtendedBeta.neg_inf() == ExtendedBeta.pos_inf()
