import math

import numpy as np
import pytest

from athermal import (
    compute_elbows,
    convertible_via_monotones,
    cooling_monotone,
    critical_energies,
    heating_monotone,
    relatively_majorizes,
    validate_state,
)
from athermal import monotones
from athermal.errors import NonPositiveBeta, NonPositiveGap


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
        """On a target with no elbow at ordinate 1/2 both methods compare the
        source boundary with the target's elbows by one rule, so they agree
        exactly: at every mass scale down to 1e-15, on both sides of the
        numpy threshold, and on pairs that differ by less than the slack."""
        for dims, count in (((2, 7), 600), ((100, 301), 60)):
            rng = np.random.default_rng([17, *dims])
            verdicts = []
            while len(verdicts) < count:
                if rng.random() < 0.5:
                    src = _random_state(rng, int(rng.integers(*dims)))
                    tgt = _random_state(rng, int(rng.integers(*dims)))
                else:
                    src, tgt = _small_mass_pair(rng, int(rng.integers(*dims)))
                if any(
                    abs(y - 0.5) <= monotones.DEGENERATE_ORDINATE_TOL
                    for _, y in compute_elbows(tgt).interior()
                ):
                    continue
                verdict = relatively_majorizes(src, tgt)
                assert convertible_via_monotones(src, tgt, 1.0) is verdict
                verdicts.append(verdict)
            assert 0.2 < sum(verdicts) / count < 0.8
