import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("n", (2, 120))  # the scalar path, the array path
    def test_overflowing_total_is_off_by_inf(self, n):
        with pytest.raises(NormalizationOutOfTolerance) as info:
            ProbabilityVector([1e308] * n)
        assert str(info.value) == "entries sum to inf, off by more than 1e-09"

    def test_dim(self):
        assert ProbabilityVector((0.25, 0.25, 0.5)).dim == 3

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            ProbabilityVector([])

    def test_equality_with_a_non_vector(self):
        p = ProbabilityVector((0.25, 0.75))
        assert p.__eq__((0.25, 0.75)) is NotImplemented
        assert p != (0.25, 0.75)
        assert p == ProbabilityVector([0.25, 0.75])

    def test_array_below_numpy_threshold(self):
        p = ProbabilityVector((0.25, 0.25, 0.5))
        a = p.array
        assert a.tolist() == [0.25, 0.25, 0.5]
        assert not a.flags.writeable
        assert p.array is a  # converted once


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

    def test_permutation_is_derived_not_passed(self):
        # the sorting permutation comes from the energies alone
        with pytest.raises(TypeError):
            GibbsContext((0.0, 1.0), 1.0, (1, 0))

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

    def test_rejects_empty_lists(self):
        with pytest.raises(DimensionMismatch, match="non-empty"):
            validate_state([], [])

    def test_state_of_vectors_of_different_lengths(self):
        with pytest.raises(DimensionMismatch, match="population dim 2 != Gibbs dim 3"):
            AthermalityState(ProbabilityVector((0.9, 0.1)), ProbabilityVector((0.5, 0.3, 0.2)))

    def test_rejects_zero_gibbs_entry(self):
        with pytest.raises(RankDeficientGibbs):
            validate_state((0.5, 0.5), (1.0, 0.0))


# Extended betas drawn as (kind, value) pairs, compared by the key of the
# former tagged representation, kept here as the reference order.
_TAGGED = st.one_of(
    st.tuples(st.just("finite"), st.floats(allow_nan=False, allow_infinity=False)),
    st.sampled_from([("+inf", 0.0), ("-inf", 0.0)]),
)


def _from_tagged(kind, value):
    if kind == "finite":
        return ExtendedBeta.finite(value)
    return ExtendedBeta(math.inf) if kind == "+inf" else ExtendedBeta(-math.inf)


def _tagged_key(kind, value):
    return {"-inf": (-1, 0.0), "+inf": (1, 0.0)}.get(kind, (0, value))


def _negated(kind, value):
    return {"+inf": ("-inf", 0.0), "-inf": ("+inf", 0.0)}.get(kind, (kind, -value))


class TestExtendedBeta:
    def test_ordering(self):
        assert ExtendedBeta(-math.inf) < ExtendedBeta.finite(-5.0)
        assert ExtendedBeta.finite(-5.0) < ExtendedBeta.finite(2.0)
        assert ExtendedBeta.finite(2.0) < ExtendedBeta(math.inf)

    def test_json_forms(self):
        assert ExtendedBeta.finite(1.5).to_json() == 1.5
        assert ExtendedBeta(math.inf).to_json() == "+inf"
        assert ExtendedBeta(-math.inf).to_json() == "-inf"

    def test_is_finite(self):
        assert ExtendedBeta.finite(0.0).is_finite
        assert not ExtendedBeta(math.inf).is_finite

    def test_negation_reflects_order(self):
        assert -ExtendedBeta.finite(1.5) == ExtendedBeta.finite(-1.5)
        assert -ExtendedBeta(math.inf) == ExtendedBeta(-math.inf)
        assert -ExtendedBeta(-math.inf) == ExtendedBeta(math.inf)

    def test_negated_tag_is_extended_beta(self):
        b = -ExtendedBeta(math.inf)
        assert isinstance(b, ExtendedBeta)
        assert b.kind == "-inf"

    def test_nan_and_non_finite_values_raise(self):
        with pytest.raises(ValueError):
            ExtendedBeta(math.nan)
        with pytest.raises(ValueError):
            ExtendedBeta.finite(math.inf)

    @pytest.mark.parametrize("kind", ["finite", "+inf", "-inf"])
    def test_pickle_and_deepcopy_round_trips(self, kind):
        b = {"finite": ExtendedBeta.finite(-2.5), "+inf": ExtendedBeta(math.inf),
             "-inf": ExtendedBeta(-math.inf)}[kind]
        for c in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b)):
            assert type(c) is ExtendedBeta
            assert (c.kind, c.value) == (b.kind, b.value)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_TAGGED, min_size=2, max_size=6))
    def test_float_agrees_with_tagged_key(self, tagged):
        """Order, equality, negation, min and max of the float agree with the
        total order of (kind, value) pairs: -inf < finite values < +inf."""
        betas = [_from_tagged(kind, value) for kind, value in tagged]
        keys = [_tagged_key(kind, value) for kind, value in tagged]
        for b, (kind, value) in zip(betas, tagged):
            assert (b.kind, b.value) == (kind, value)
            nb = -b
            assert isinstance(nb, ExtendedBeta)
            assert _tagged_key(nb.kind, nb.value) == _tagged_key(*_negated(kind, value))
        a, b, ka, kb = betas[0], betas[1], keys[0], keys[1]
        assert (a < b, a <= b, a == b, a >= b, a > b) == (
            ka < kb, ka <= kb, ka == kb, ka >= kb, ka > kb
        )
        lo, hi = min(betas), max(betas)
        assert isinstance(lo, ExtendedBeta) and isinstance(hi, ExtendedBeta)
        assert _tagged_key(lo.kind, lo.value) == min(keys)
        assert _tagged_key(hi.kind, hi.value) == max(keys)
