import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from athermal import (
    ExtendedBeta,
    GibbsContext,
    beta_max,
    beta_min,
    max_ground_overlap,
    qubit_beta_bounds,
    qubit_energy_change,
    relatively_majorizes,
    validate_state,
)
from athermal.errors import (
    DegenerateTarget,
    GapTooSmall,
    NonFiniteBeta,
    NonPositiveBeta,
    NonPositiveGap,
    WrongDegeneracy,
)
from athermal import tempbounds
from athermal.tempbounds import _bottom_masses
from athermal.thermo import gibbs_vector

LN4 = math.log(4.0)
QUBIT = GibbsContext((0.0, LN4), 1.0)


def _free(g):
    return validate_state(g, g)


class TestBetaMax:
    def test_free_resource_is_fixed_point(self):
        report = beta_max(_free((0.8, 0.2)), QUBIT)
        assert report.beta_max == ExtendedBeta.finite(1.0)
        assert report.beta_max.value == 1.0  # exact, not merely close

    def test_qubit_hand_value(self):
        resource = validate_state((0.9, 0.1), (0.8, 0.2))
        report = beta_max(resource, QUBIT)
        assert report.beta_max.value == pytest.approx(math.log(9.0) / LN4, rel=1e-12)

    def test_pure_ground_resource_unbounded(self):
        resource = validate_state((1.0, 0.0), (0.8, 0.2))
        assert beta_max(resource, QUBIT).beta_max == ExtendedBeta.pos_inf()

    def test_rejects_degenerate_target(self):
        with pytest.raises(DegenerateTarget):
            beta_max(_free((0.5, 0.5)), GibbsContext((1.0, 1.0), 1.0))

    def test_reachability_bracketing(self):
        resource = validate_state((0.9, 0.05, 0.05), (0.5, 0.3, 0.2))
        target = GibbsContext((0.0, 0.7, 1.9), 1.0)
        bm = beta_max(resource, target).beta_max.value
        for bt, expect in ((bm - 1e-6, True), (bm + 1e-6, False)):
            pair = validate_state(
                gibbs_vector(target.energies, bt).entries,
                gibbs_vector(target.energies, target.beta).entries,
            )
            assert relatively_majorizes(resource, pair) is expect

    def test_per_condition_count(self):
        resource = validate_state((0.9, 0.05, 0.05), (0.5, 0.3, 0.2))
        target = GibbsContext((0.0, 0.7, 1.9), 1.0)
        report = beta_max(resource, target)
        assert [k for k, _, _ in report.per_condition] == [1, 2]


class TestBetaMin:
    def test_free_resource_is_fixed_point(self):
        report = beta_min(_free((0.8, 0.2)), QUBIT)
        assert report.beta_min.value == 1.0

    def test_qubit_hand_value(self):
        resource = validate_state((0.9, 0.1), (0.8, 0.2))
        report = beta_min(resource, QUBIT)
        # alpha at y = 0.2 on the segment (0,0)-(0.9,0.8) is 0.225
        assert report.beta_min.value == pytest.approx(
            math.log(0.775 / 0.225) / LN4, rel=1e-12
        )

    def test_pure_excited_resource_unbounded(self):
        resource = validate_state((0.0, 1.0), (0.8, 0.2))
        assert beta_min(resource, QUBIT).beta_min == ExtendedBeta.neg_inf()

    def test_population_inversion_possible(self):
        resource = validate_state((0.02, 0.98), (0.8, 0.2))
        report = beta_min(resource, QUBIT)
        assert report.beta_min.is_finite
        assert report.beta_min.value < 0.0

    def test_never_above_background(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            r = rng.dirichlet(np.ones(3))
            g = rng.dirichlet(np.ones(3)) + 1e-3
            resource = validate_state(r, g / g.sum())
            report = beta_min(resource, GibbsContext((0.0, 0.4, 1.1), 2.0))
            assert report.beta_min <= ExtendedBeta.finite(2.0)

    def test_reachability_bracketing(self):
        resource = validate_state((0.05, 0.05, 0.9), (0.5, 0.3, 0.2))
        target = GibbsContext((0.0, 0.7, 1.9), 1.0)
        bm = beta_min(resource, target).beta_min.value
        for bt, expect in ((bm + 1e-6, True), (bm - 1e-6, False)):
            pair = validate_state(
                gibbs_vector(target.energies, bt).entries,
                gibbs_vector(target.energies, target.beta).entries,
            )
            assert relatively_majorizes(resource, pair) is expect


def _two_valued_t(n, d, k, alpha):
    """exp(-beta~ E) solving cooling condition k of a target with d levels
    at 0 and n - d at E: k/(d + (n-d)t) = alpha for k < d, and
    (d + (k-d)t)/(d + (n-d)t) = alpha for k >= d."""
    if k < d:
        return (k - alpha * d) / (alpha * (n - d))
    return d * (1 - alpha) / (alpha * (n - d) - (k - d))


_pop_weight = st.floats(min_value=1e-3, max_value=1.0)


class TestClosedForms:
    @pytest.mark.parametrize("eps", [1e-9, 1e-11])
    def test_near_pure_ground_resource(self, eps):
        # Condition 1 of (0, E, E) is exp(-beta~ E) = (1 - alpha)/(2 alpha);
        # with alpha = 1 - eps a solve on the k-level mass loses
        # 1e-16/eps of relative accuracy, the log-odds does not.
        E = 1.0
        target = GibbsContext((0.0, E, E), 1.0)
        g = gibbs_vector(target.energies, target.beta).entries
        resource = validate_state((1.0 - eps, eps / 2, eps / 2), g)
        k, b, alpha = beta_max(resource, target).per_condition[0]
        assert k == 1
        assert b.value == pytest.approx(
            math.log(2.0 * alpha / (1.0 - alpha)) / E, rel=1e-12
        )

    @pytest.mark.parametrize("eps", [1e-9, 1e-11])
    def test_near_pure_top_resource(self, eps):
        E = 1.0
        target = GibbsContext((0.0, 0.0, E), 1.0)
        g = gibbs_vector(target.energies, target.beta).entries
        resource = validate_state((eps / 2, eps / 2, 1.0 - eps), g)
        k, b, alpha = beta_min(resource, target).per_condition[0]
        assert k == 1
        assert b.value == pytest.approx(
            -math.log(2.0 * alpha / (1.0 - alpha)) / E, rel=1e-12
        )

    @given(
        st.one_of(
            st.integers(min_value=2, max_value=8),
            st.integers(
                min_value=tempbounds._VECTOR_MIN_LEVELS,
                max_value=tempbounds._VECTOR_MIN_LEVELS + 16,
            ),
        ).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(min_value=1, max_value=n - 1),
                st.lists(_pop_weight, min_size=n, max_size=n),
                st.lists(_pop_weight, min_size=n, max_size=n),
            )
        ),
        st.floats(min_value=0.05, max_value=5.0),
        st.floats(min_value=0.05, max_value=3.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_two_valued_targets(self, drawn, E, beta):
        n, d, rw, gw = drawn
        resource = validate_state(
            [x / math.fsum(rw) for x in rw], [x / math.fsum(gw) for x in gw]
        )
        target = GibbsContext((0.0,) * d + (E,) * (n - d), beta)
        mirror = tuple(-x for x in reversed(target.energies))
        # A condition whose bottom-k mass at beta already reaches alpha_k
        # keeps beta exactly. The closed form through alpha_k is no reference
        # there: alpha_k carries the rounding of that mass, which moves the
        # root by |d beta~/d alpha_k| ulp, about 3e-10 at beta E = 15 for a
        # free resource, whose answer is beta itself. Elsewhere the closed
        # form is taken in exact rationals: alpha_k (n - d) - (k - d) cancels.
        y_cool = _bottom_masses(target.energies, beta, range(1, n))
        y_heat = _bottom_masses(mirror, -beta, range(1, n))
        # Below |beta~| = 1 the solver's stopping width is absolute, 1e-13.
        for k, b, alpha in beta_max(resource, target).per_condition:
            if b.is_finite:
                if y_cool[k - 1] >= alpha:
                    expected = beta
                else:
                    expected = -math.log(_two_valued_t(n, d, k, Fraction(alpha))) / E
                assert b.value == pytest.approx(expected, rel=1e-10, abs=1e-12)
        # Heating mirrors the target: n - d levels at 0, d at E, at -beta~.
        for k, b, alpha in beta_min(resource, target).per_condition:
            if b.is_finite:
                if y_heat[k - 1] >= alpha:
                    expected = beta
                else:
                    expected = math.log(_two_valued_t(n, n - d, k, Fraction(alpha))) / E
                assert b.value == pytest.approx(expected, rel=1e-10, abs=1e-12)


class TestFarLevels:
    # With beta~ E in the thousands, a sum of Gibbs weights under one common
    # shift underflows to 0; each condition must still resolve.
    @pytest.mark.parametrize("energies", [(0.0, 5000.0), (0.0, 2500.0, 5000.0)])
    @pytest.mark.parametrize("beta", [1e-3, 1e-2, 1.0])
    def test_cool_and_heat(self, energies, beta):
        resource = validate_state((0.9, 0.1), (0.8, 0.2))
        target = GibbsContext(energies, beta)
        cool = beta_max(resource, target)
        heat = beta_min(resource, target)
        assert cool.beta_max >= ExtendedBeta.finite(beta)
        assert heat.beta_min <= ExtendedBeta.finite(beta)
        for report in (cool, heat):
            assert len(report.per_condition) == len(energies) - 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("beta", [1e-3, 1e-2, 1.0])
    def test_switch_sized_target(self, monkeypatch, beta):
        # The vector path shifts each row's head and tail on their own, as
        # the scalar path does; under one shift a tail sum underflows to 0
        # and numpy warns where Python would raise ZeroDivisionError.
        resource = validate_state((0.9, 0.1), (0.8, 0.2))
        levels = tempbounds._VECTOR_MIN_LEVELS
        target = GibbsContext(tuple(np.linspace(0.0, 5000.0, levels).tolist()), beta)
        reports = []
        for threshold in (levels, sys.maxsize):
            monkeypatch.setattr(tempbounds, "_VECTOR_MIN_LEVELS", threshold)
            reports.append((beta_max(resource, target), beta_min(resource, target)))
        (cool, heat), scalar = reports
        assert cool.beta_max >= ExtendedBeta.finite(beta)
        assert heat.beta_min <= ExtendedBeta.finite(beta)
        for report, reference in zip((cool, heat), scalar):
            assert len(report.per_condition) == levels - 1
            for (k, b, alpha), (k_ref, b_ref, alpha_ref) in zip(
                report.per_condition, reference.per_condition
            ):
                assert (k, b.kind, alpha) == (k_ref, b_ref.kind, alpha_ref)
                if b.is_finite:
                    assert b.value == pytest.approx(b_ref.value, rel=1e-12, abs=1e-12)

    def test_two_level_matches_closed_form(self):
        resource = validate_state((0.9, 0.1), (0.8, 0.2))
        target = GibbsContext((0.0, 5000.0), 1e-3)
        bmax, bmin = qubit_beta_bounds(resource, 5000.0, 1e-3)
        assert beta_max(resource, target).beta_max.value == pytest.approx(
            bmax.value, rel=1e-12
        )
        assert beta_min(resource, target).beta_min.value == pytest.approx(
            bmin.value, rel=1e-12
        )


class TestQubitBetaBounds:
    def test_matches_general_solver(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            r = rng.dirichlet(np.ones(4))
            g = rng.dirichlet(np.ones(4)) + 1e-3
            resource = validate_state(r, g / g.sum())
            E = float(rng.uniform(0.1, 3.0))
            beta = float(rng.uniform(0.2, 2.0))
            bmax, bmin = qubit_beta_bounds(resource, E, beta)
            ctx = GibbsContext((0.0, E), beta)
            general_max = beta_max(resource, ctx).beta_max
            general_min = beta_min(resource, ctx).beta_min
            if bmax.is_finite:
                assert bmax.value == pytest.approx(general_max.value, rel=1e-9)
            else:
                assert general_max == ExtendedBeta.pos_inf()
            if bmin.is_finite:
                assert bmin.value == pytest.approx(general_min.value, rel=1e-9)
            else:
                assert general_min == ExtendedBeta.neg_inf()

    def test_free_resource_both_equal_beta(self):
        bmax, bmin = qubit_beta_bounds(_free((0.6, 0.25, 0.15)), 1.0, 1.3)
        assert bmax == ExtendedBeta.finite(1.3)
        assert bmin == ExtendedBeta.finite(1.3)

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(NonPositiveGap):
            qubit_beta_bounds(_free((0.8, 0.2)), 0.0, 1.0)
        with pytest.raises(NonPositiveGap):
            qubit_beta_bounds(_free((0.8, 0.2)), math.inf, 1.0)

    @pytest.mark.parametrize("E", [700.0, 800.0, 1e4])
    def test_far_gap_heating_bound(self, E):
        # g2 = w/(1+w) underflows to 0 from E ~ 745 on; alpha_t = lam*g2 on
        # the first segment, lam = 0.9/0.8
        resource = validate_state((0.9, 0.1), (0.8, 0.2))
        _, bmin = qubit_beta_bounds(resource, E, 1.0)
        lam, w = 0.9 / 0.8, math.exp(-E)
        alpha_t = lam * w / (1.0 + w)
        expected = (
            1.0 - math.log(lam) / E + math.log1p(w) / E + math.log1p(-alpha_t) / E
        )
        assert bmin.is_finite
        assert bmin.value == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("E", [5e-324, 1e-310])
    def test_subnormal_gap_overflows(self, E):
        resource = validate_state((0.9, 0.1), (0.8, 0.2))
        with pytest.raises(GapTooSmall):
            qubit_beta_bounds(resource, E, 1.0)

    def test_tiny_gap_stays_finite(self):
        # w rounds to 1, so g = (1/2, 1/2) and alpha = alpha_t = 0.5 * 0.9/0.8
        resource = validate_state((0.9, 0.1), (0.8, 0.2))
        bmax, bmin = qubit_beta_bounds(resource, 1e-300, 1.0)
        assert bmax.value == pytest.approx(math.log(9.0 / 7.0) / 1e-300, rel=1e-14)
        assert bmin.value == pytest.approx(-math.log(9.0 / 7.0) / 1e-300, rel=1e-14)

    def test_ordering(self):
        resource = validate_state((0.9, 0.1), (0.8, 0.2))
        bmax, bmin = qubit_beta_bounds(resource, LN4, 1.0)
        assert bmin < ExtendedBeta.finite(1.0) < bmax


class TestMaxGroundOverlap:
    def test_hand_value(self):
        resource = validate_state((0.9, 0.1), (0.8, 0.2))
        target = GibbsContext((0.0, math.log(3.5), math.log(7.0)), 1.0)
        # target Gibbs = (0.7, 0.2, 0.1); resource elbow (0.9, 0.8), so
        # alpha at y = 0.7 interpolates to 0.7 * 0.9/0.8 = 0.7875
        assert max_ground_overlap(resource, target) == pytest.approx(
            0.7875, abs=1e-12
        )

    def test_free_resource_equilibrium_value(self):
        target = GibbsContext((0.0, LN4), 1.0)
        assert max_ground_overlap(_free((0.8, 0.2)), target) == pytest.approx(
            0.8, abs=1e-12
        )

    def test_pure_ground_resource(self):
        resource = validate_state((1.0, 0.0), (0.8, 0.2))
        assert max_ground_overlap(resource, QUBIT) == 1.0

    def test_degenerate_ground_space(self):
        target = GibbsContext((0.0, 0.0, 1.0), 1.0)
        resource = validate_state((1.0, 0.0, 0.0), (0.4, 0.4, 0.2))
        assert max_ground_overlap(resource, target, 2) == 1.0

    def test_rejects_wrong_degeneracy(self):
        with pytest.raises(WrongDegeneracy):
            max_ground_overlap(_free((0.8, 0.2)), QUBIT, 2)


class TestQubitEnergyChange:
    def test_zero_when_no_temperature_change(self):
        assert qubit_energy_change(1.0, 1.0, 1.0) == 0.0

    def test_cooling_releases_energy(self):
        assert qubit_energy_change(1.0, 1.0, 2.0) < 0.0

    def test_heating_absorbs_energy(self):
        assert qubit_energy_change(1.0, 1.0, 0.5) > 0.0

    def test_vanishes_at_extreme_gaps(self):
        assert abs(qubit_energy_change(1e-8, 1.0, 2.0)) < 1e-8
        assert abs(qubit_energy_change(5000.0, 1.0, 2.0)) == 0.0

    @pytest.mark.parametrize("E", [-1.0, 0.0, math.inf, math.nan])
    def test_rejects_bad_gap(self, E):
        with pytest.raises(NonPositiveGap):
            qubit_energy_change(E, 1.0, 2.0)

    @pytest.mark.parametrize("beta", [-1.0, 0.0, math.inf, math.nan])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(NonPositiveBeta):
            qubit_energy_change(1.0, beta, 2.0)

    def test_rejects_nan_beta_tilde(self):
        with pytest.raises(NonFiniteBeta):
            qubit_energy_change(1.0, 1.0, math.nan)

    def test_limits_of_cooling_and_inversion(self):
        # The excited occupancy 1/(1 + exp(beta~ E)) is 0 at beta~ = +inf and
        # 1 at -inf; a negative beta~ is an inverted qubit.
        p = 1.0 / (1.0 + math.exp(1.0))
        assert qubit_energy_change(1.0, 1.0, math.inf) == -p
        assert qubit_energy_change(1.0, 1.0, -math.inf) == 1.0 - p
        assert qubit_energy_change(1.0, 1.0, -1.0) == pytest.approx(1.0 - 2.0 * p)
