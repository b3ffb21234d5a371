import math

import numpy as np
import pytest

from athermal import (
    alpha_at,
    compute_elbows,
    construct_gap_example,
    eset_superset_check,
    fa_point,
    gap_membership,
    gap_set,
    validate_state,
)
from athermal.errors import NonPositiveGap, TrivialRatio, WOutOfRange


def _free(g):
    return validate_state(g, g)


class TestFaPoint:
    def test_rejects_trivial_ratio(self):
        with pytest.raises(TrivialRatio):
            fa_point(1.0, 0.5)

    def test_rejects_w_out_of_range(self):
        with pytest.raises(WOutOfRange):
            fa_point(2.0, 0.0)
        with pytest.raises(WOutOfRange):
            fa_point(2.0, 1.5)

    def test_anchor_at_w_one(self):
        assert fa_point(2.0, 1.0) == (0.5, 0.5)
        assert fa_point(0.5, 1.0) == (0.5, 0.5)
        assert fa_point(-2.0, 1.0) == (0.5, 0.5)
        assert fa_point(0.0, 1.0) == (0.5, 0.5)

    def test_small_w_limits(self):
        x, y = fa_point(2.0, 1e-10)  # cooling branch -> (1, 1)
        assert x == pytest.approx(1.0, abs=1e-6)
        assert y == pytest.approx(1.0, abs=1e-6)
        x, y = fa_point(0.5, 1e-10)  # heating branch -> (0, 0); x = sqrt(w)
        assert x == pytest.approx(0.0, abs=1.1e-5)
        assert y == pytest.approx(0.0, abs=1e-6)
        x, y = fa_point(0.0, 1e-10)  # infinite-temperature target -> (1/2, 0)
        assert (x, y) == pytest.approx((0.5, 0.0), abs=1e-6)
        x, y = fa_point(-2.0, 1e-10)  # population-inverted target -> (1, 0)
        assert (x, y) == pytest.approx((1.0, 0.0), abs=1e-6)

    def test_cooling_branch_above_diagonal(self):
        for w in (0.1, 0.5, 0.9):
            x, y = fa_point(3.0, w)
            assert x >= y

    def test_heating_branch_also_below_diagonal(self):
        # heating raises the excited occupancy, so x = w^a/(1+w^a) exceeds
        # y = w/(1+w) for a < 1; the elbow still sits on the x >= y side
        for w in (0.1, 0.5, 0.9):
            x, y = fa_point(0.3, w)
            assert x >= y


class TestGapMembership:
    def test_same_temperature_always_true(self):
        assert gap_membership(_free((0.8, 0.2)), 1.0, 1.0, 2.5)

    def test_free_resource_false_otherwise(self):
        assert not gap_membership(_free((0.8, 0.2)), 1.0, 2.0, 1.0)
        assert not gap_membership(_free((0.8, 0.2)), 1.0, 0.5, 1.0)

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(NonPositiveGap):
            gap_membership(_free((0.8, 0.2)), 1.0, 2.0, 0.0)

    def test_nonmonotone_pattern(self):
        # this resource admits beta~ = 1/2 at small and at moderate gaps,
        # but not in between
        resource = validate_state((0.2, 0.8), (0.045, 0.955))
        members = [
            gap_membership(resource, 1.0, 0.5, E) for E in (0.5, 2.0, 3.0)
        ]
        assert members == [True, False, True]


class TestGapSet:
    def test_same_temperature_full_interval(self):
        out = gap_set(_free((0.8, 0.2)), 1.0, 1.0, e_max=5.0)
        assert len(out.intervals) == 1
        iv = out.intervals[0]
        assert (iv.lo, iv.hi, iv.lo_closed, iv.hi_closed) == (0.0, 5.0, False, True)

    def test_free_resource_empty(self):
        assert gap_set(_free((0.8, 0.2)), 1.0, 2.0, e_max=5.0).is_empty

    def test_single_elbow_resource_single_interval(self):
        resource = validate_state((1.0, 0.0), (0.5, 0.5))
        out = gap_set(resource, 1.0, 2.0, e_max=10.0)
        assert len(out.intervals) == 1
        assert out.intervals[0].lo == 0.0

    def test_noninterval_witness(self):
        resource = validate_state((0.2, 0.8), (0.045, 0.955))
        out = gap_set(resource, 1.0, 0.5, e_max=10.0)
        assert len(out.intervals) == 2

    def test_intervals_sorted_disjoint(self):
        resource = validate_state((0.2, 0.8), (0.045, 0.955))
        out = gap_set(resource, 1.0, 0.5, e_max=10.0)
        for a, b in zip(out.intervals, out.intervals[1:]):
            assert a.hi < b.lo

    def test_endpoints_agree_with_membership(self):
        resource = validate_state((0.2, 0.8), (0.045, 0.955))
        out = gap_set(resource, 1.0, 0.5, e_max=10.0)
        for iv in out.intervals:
            inner = 0.5 * (iv.lo + iv.hi)
            assert gap_membership(resource, 1.0, 0.5, inner)
            if iv.lo > 0.0:
                assert not gap_membership(resource, 1.0, 0.5, iv.lo - 1e-6)
            if iv.hi < 10.0:
                assert not gap_membership(resource, 1.0, 0.5, iv.hi + 1e-6)

    def test_near_contact_agrees_with_membership(self):
        # the curve point at one scan grid point lies just outside the
        # resource's single elbow, by less than 1e-13
        a, e_max, n_grid = 0.5, 10.0, 1000
        w_min = math.exp(-e_max)
        w = w_min + (1.0 - w_min) / n_grid * 400
        E = -math.log(w)
        x, y = fa_point(a, w)
        resource = validate_state((x - 5e-14, 1.0 - x + 5e-14), (y, 1.0 - y))
        clearance = alpha_at(compute_elbows(resource), y) - x
        assert -1e-13 < clearance < 0.0
        assert gap_membership(resource, 1.0, a, E)
        out = gap_set(resource, 1.0, a, e_max=e_max, n_grid=n_grid)
        assert any(iv.lo <= E <= iv.hi for iv in out.intervals)


class TestConstructGapExample:
    @pytest.mark.parametrize("a", [0.3, 0.5, 0.7, 2.0, 3.0])
    def test_produces_noninterval_set(self, a):
        resource = construct_gap_example(a)
        out = gap_set(resource, 1.0, a, n_grid=20_000)
        assert len(out.intervals) >= 2

    def test_rejects_trivial_and_nonpositive(self):
        with pytest.raises(TrivialRatio):
            construct_gap_example(1.0)
        with pytest.raises(TrivialRatio):
            construct_gap_example(-0.5)

    def test_returns_valid_qubit(self):
        state = construct_gap_example(0.5)
        assert state.dim == 2
        assert all(g > 0.0 for g in state.g.entries)


class TestEsetSupersetCheck:
    def test_majorizing_source_contains_target_sets(self):
        src = validate_state((0.95, 0.05), (0.8, 0.2))
        tgt = validate_state((0.85, 0.15), (0.8, 0.2))
        grid_bt = [0.5, 1.5, 2.0]
        grid_e = list(np.linspace(0.05, 6.0, 40))
        assert eset_superset_check(src, tgt, 1.0, grid_bt, grid_e)
        assert not eset_superset_check(tgt, src, 1.0, grid_bt, grid_e)
