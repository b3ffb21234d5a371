import math

import numpy as np
import pytest

from athermal import (
    compute_elbows,
    convertible_via_monotones,
    cooling_monotone,
    critical_energies,
    heating_monotone,
    qubit_beta_bounds,
    relatively_majorizes,
    validate_state,
)
from athermal import monotones
from athermal.errors import GapTooSmall, NonPositiveBeta, NonPositiveGap


def _random_state(rng, dim):
    r = rng.dirichlet(np.ones(dim))
    g = rng.dirichlet(np.ones(dim)) + 1e-3
    return validate_state(r, g / g.sum())


def _free(g):
    return validate_state(g, g)


def _small_mass_pair(rng, dim):
    """A state whose levels but the last carry a total mass between 1e-15 and
    1e-1, and a partial thermalisation of it, in either order."""
    scale = 10.0 ** rng.uniform(-15.0, -1.0)
    r = rng.dirichlet(np.ones(dim - 1)) * scale
    g = rng.dirichlet(np.ones(dim - 1)) * scale * 10.0 ** rng.uniform(-0.5, 0.5)
    r, g = np.append(r, 1.0 - r.sum()), np.append(g, 1.0 - g.sum())
    lam = rng.uniform(0.0, 1.0)
    pair = [validate_state(r, g), validate_state(lam * r + (1.0 - lam) * g, g)]
    if rng.random() < 0.5:
        pair.reverse()
    return pair


class TestMonotoneValues:
    def test_free_state_both_zero(self):
        state = _free((0.8, 0.2))
        assert cooling_monotone(state, 1.0, 1.0) == 0.0
        assert heating_monotone(state, 1.0, 1.0) == 0.0

    def test_qubit_hand_value(self):
        state = validate_state((0.9, 0.1), (0.8, 0.2))
        value = cooling_monotone(state, 1.0, math.log(4.0))
        assert value == pytest.approx(math.log(9.0) / math.log(4.0) - 1.0, rel=1e-12)

    def test_pure_resource_infinite(self):
        # the bound turns infinite once the target occupancy falls inside the
        # flat top of the pure resource's boundary (gap past ln 4 here)
        state = validate_state((1.0, 0.0), (0.8, 0.2))
        assert cooling_monotone(state, 1.0, 2.0) == math.inf
        state = validate_state((0.0, 1.0), (0.8, 0.2))
        assert heating_monotone(state, 1.0, 1.0) == math.inf

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            state = _random_state(rng, 3)
            E = float(rng.uniform(0.05, 4.0))
            assert cooling_monotone(state, 1.0, E) >= 0.0
            assert heating_monotone(state, 1.0, E) >= 0.0

    def test_rejects_bad_args(self):
        state = _free((0.8, 0.2))
        with pytest.raises(NonPositiveGap):
            cooling_monotone(state, 1.0, -1.0)
        with pytest.raises(NonPositiveBeta):
            heating_monotone(state, 0.0, 1.0)


class TestMonotonesAreQubitBound:
    """Each monotone is its side of the qubit temperature bound less beta,
    to the bit: beta~_max - beta and beta - beta~_min."""

    @staticmethod
    def _assert_bound(state, beta, E):
        bmax, bmin = qubit_beta_bounds(state, E, beta)
        assert cooling_monotone(state, beta, E) == bmax - beta
        assert heating_monotone(state, beta, E) == beta - bmin

    def test_seeded_resources(self):
        rng = np.random.default_rng(50)
        for _ in range(600):
            state = _random_state(rng, int(rng.integers(2, 7)))
            self._assert_bound(state, float(rng.uniform(0.2, 3.0)),
                               float(rng.uniform(0.01, 5.0)))

    def test_pure_free_and_far_gap(self):
        pure = validate_state((1.0, 0.0), (0.8, 0.2))
        assert cooling_monotone(pure, 1.0, 2.0) == math.inf
        self._assert_bound(pure, 1.0, 2.0)
        free = _free((0.6, 0.25, 0.15))
        assert cooling_monotone(free, 1.3, 1.0) == heating_monotone(free, 1.3, 1.0) == 0.0
        self._assert_bound(free, 1.3, 1.0)
        resource = validate_state((0.9, 0.1), (0.8, 0.2))
        for beta in (0.5, 1.0, 2.0):
            self._assert_bound(resource, beta, 800.0 / beta)

    def test_subnormal_gap_overflows_all_three(self):
        resource = validate_state((0.9, 0.1), (0.8, 0.2))
        for call in (
            lambda: qubit_beta_bounds(resource, 1e-320, 1.0),
            lambda: cooling_monotone(resource, 1.0, 1e-320),
            lambda: heating_monotone(resource, 1.0, 1e-320),
        ):
            with pytest.raises(GapTooSmall):
                call()


class TestCriticalEnergies:
    def test_free_target_empty(self):
        crit = critical_energies(_free((0.7, 0.3)), 1.0)
        assert crit.entries == ()
        assert crit.degenerate_flags == ()

    def test_cooling_kind_above_half(self):
        # single elbow at y = 0.8 -> E = ln 4, cooling
        target = validate_state((0.9, 0.1), (0.8, 0.2))
        crit = critical_energies(target, 1.0)
        assert len(crit.entries) == 1
        k, E, kind = crit.entries[0]
        assert kind == "cooling"
        assert E == pytest.approx(math.log(4.0), rel=1e-14)

    def test_heating_kind_below_half(self):
        target = validate_state((0.2, 0.8), (0.045, 0.955))
        crit = critical_energies(target, 1.0)
        k, E, kind = crit.entries[0]
        assert kind == "heating"
        assert E == pytest.approx(math.log(0.955 / 0.045), rel=1e-14)

    def test_beta_scales_energies(self):
        target = validate_state((0.9, 0.1), (0.8, 0.2))
        e1 = critical_energies(target, 1.0).entries[0][1]
        e2 = critical_energies(target, 2.0).entries[0][1]
        assert e2 == pytest.approx(e1 / 2.0, rel=1e-14)

    def test_degenerate_elbow_flagged(self):
        target = validate_state((0.9, 0.1), (0.5, 0.5))
        crit = critical_energies(target, 1.0)
        assert crit.entries == ()
        assert crit.degenerate_flags == (1,)


class TestConvertibleViaMonotones:
    def test_reflexive(self):
        state = validate_state((0.7, 0.2, 0.1), (0.2, 0.3, 0.5))
        assert convertible_via_monotones(state, state, 1.0)

    def test_to_free_always(self):
        g = (0.5, 0.3, 0.2)
        state = validate_state((0.8, 0.15, 0.05), g)
        assert convertible_via_monotones(state, _free(g), 1.0)

    def test_from_free_never_to_athermal(self):
        g = (0.5, 0.3, 0.2)
        state = validate_state((0.8, 0.15, 0.05), g)
        assert not convertible_via_monotones(_free(g), state, 1.0)

    def test_degenerate_elbow_target(self):
        target = validate_state((0.9, 0.1), (0.5, 0.5))
        strong = validate_state((0.99, 0.01), (0.5, 0.5))
        assert convertible_via_monotones(strong, target, 1.0)
        assert not convertible_via_monotones(target, strong, 1.0)

    def test_failed_check_order(self):
        # Elbows at ordinates 1/4, 1/2 and 3/4; the free source fails every
        # check. Critical gaps come first, in k order, then the perturbed ones.
        g = (0.25, 0.25, 0.25, 0.25)
        target = validate_state((0.5, 0.3, 0.15, 0.05), g)
        crit = critical_energies(target, 1.0)
        assert [k for k, _, _ in crit.entries] == [1, 3]
        assert crit.degenerate_flags == (2,)
        assert monotones._failed_check(_free(g), target, 1.0) == crit.entries[0]
        assert monotones._failed_check(target, target, 1.0) is None
        # An elbow at 1/2 alone: its check below 1/2 comes before the one above.
        half = validate_state((0.9, 0.1), (0.5, 0.5))
        k, E, kind = monotones._failed_check(_free((0.5, 0.5)), half, 1.0)
        assert (k, kind) == (1, "heating")
        assert E == pytest.approx(4e-9, rel=1e-6)

    def test_agrees_with_relative_majorization(self):
        """Both methods compare the source boundary with the target's elbows
        by one rule, so they agree exactly: at every mass scale down to 1e-15,
        on both sides of the numpy threshold, and on pairs that differ by less
        than the slack."""
        for dims, count in (((2, 7), 600), ((100, 301), 60)):
            rng = np.random.default_rng([17, *dims])
            verdicts = []
            while len(verdicts) < count:
                if rng.random() < 0.5:
                    src = _random_state(rng, int(rng.integers(*dims)))
                    tgt = _random_state(rng, int(rng.integers(*dims)))
                else:
                    src, tgt = _small_mass_pair(rng, int(rng.integers(*dims)))
                verdict = relatively_majorizes(src, tgt)
                assert convertible_via_monotones(src, tgt, 1.0) is verdict
                verdicts.append(verdict)
            assert 0.2 < sum(verdicts) / count < 0.8

    def test_elbow_at_half_itself(self):
        """A source with elbows at 1/2 -+ d passes the target at 1/2 -+ 1e-9
        but misses its elbow (0.75, 1/2) by 0.5 d = 500 times the slack: both
        methods say no, and the witness is a heating gap beside the elbow."""
        d = 1e-9
        source = validate_state(
            (0.75 - 1.5 * d, 2 * d, 0.25 - 0.5 * d), (0.5 - d, 2 * d, 0.5 - d)
        )
        target = validate_state((0.75, 0.125, 0.125), (0.5, 0.25, 0.25))
        assert not relatively_majorizes(source, target)
        assert not convertible_via_monotones(source, target, 1.0)
        k, E, kind = monotones._failed_check(source, target, 1.0)
        assert (k, kind) == (1, "heating")
        assert E == pytest.approx(2e-9, rel=1e-6)
        assert heating_monotone(source, 1.0, E) < heating_monotone(target, 1.0, E)

    @pytest.mark.parametrize("levels", [(1, 4), (50, 100)])
    def test_agrees_on_targets_split_at_half(self, levels):
        """Targets with one elbow, at ordinate 1/2, against sources with
        elbows at 1/2 -+ d for d from 1e-12 to 1e-6 that miss the target's
        elbow by up to d or clear it by up to d: the two decisions and
        `_failed_check` agree, below the numpy threshold and above it (each
        block split into tied levels), and every witness gives lhs < rhs."""
        rng = np.random.default_rng([29, *levels])

        def state(blocks):  # (r, g) per block, each split into tied levels
            r, g = [], []
            for rb, gb in blocks:
                w = rng.dirichlet(np.ones(int(rng.integers(*levels))))
                r.extend(rb * w)
                g.extend(gb * w)
            return validate_state(r, g)

        verdicts = []
        for d in np.logspace(-12.0, -6.0, 100):
            x_half = rng.uniform(0.6, 0.95)  # the target's elbow (x_half, 1/2)
            spread = 2.0 * (2.0 * x_half - 1.0)  # its left slope minus its right
            e = rng.uniform(0.0, spread)
            tilt = rng.uniform(-0.45, 0.45) * spread
            # Source elbows at ordinates 1/2 -+ d, d * (e -+ tilt) to the right
            # of the target's two segments; by concavity of its boundary it
            # misses the target's elbow by d * (spread / 2 - e).
            x_lo = 2.0 * x_half * (0.5 - d) + (e + tilt) * d
            x_hi = x_half + 2.0 * (1.0 - x_half) * d + (e - tilt) * d
            source = state(
                ((x_lo, 0.5 - d), (x_hi - x_lo, 2.0 * d), (1.0 - x_hi, 0.5 - d))
            )
            target = state(((x_half, 0.5), (1.0 - x_half, 0.5)))
            assert compute_elbows(target).ys[1] == pytest.approx(0.5, abs=1e-15)
            verdict = relatively_majorizes(source, target)
            assert convertible_via_monotones(source, target, 1.0) is verdict
            failed = monotones._failed_check(source, target, 1.0)
            assert (failed is None) is verdict
            if failed is not None:
                k, E, kind = failed
                mono = cooling_monotone if kind == "cooling" else heating_monotone
                assert mono(source, 1.0, E) < mono(target, 1.0, E)
            verdicts.append(verdict)
        assert 0.2 < sum(verdicts) / len(verdicts) < 0.8
