"""Every result is unit-free: rescaling the energies by 2^s and beta by 2^-s
changes no product beta*h in floating point (short of under- or overflow), so
each quantity must come out bit-identical after one `ldexp`. Temperatures
scale by 2^-s, gaps by 2^s; verdicts, alphas, Gibbs vectors and the grid
resolution (a step in w = exp(-beta*E)) do not move. This is an exact
metamorphic check: it needs no tolerance and no reference.

The families are seeded, at s in `SCALES`: targets of 3-23 levels take the
scalar root kernel and targets of 24-64 levels the array kernel.
"""

import math

import numpy as np
import pytest

from athermal import (
    GibbsContext,
    beta_max,
    beta_min,
    construct_gap_example,
    convertible_via_monotones,
    cooling_monotone,
    critical_energies,
    gap_set,
    gibbs_vector,
    heating_monotone,
    relatively_majorizes,
    validate_state,
)
from athermal.tempbounds import _VECTOR_MIN_LEVELS

SCALES = (-80, -50, -20, 20, 50, 80)
SCALAR_LEVELS = (3, 5, 8, 16, _VECTOR_MIN_LEVELS - 1)
ARRAY_LEVELS = (_VECTOR_MIN_LEVELS, 32, 64)


def _energies(rng, levels):
    """Sorted energies in [0, 3], with a degenerate ground or top at times."""
    h = np.sort(rng.uniform(0.0, 3.0, levels))
    ground, top = rng.integers(1, 3, 2)
    h[:ground], h[levels - top :] = h[0], h[-1]
    return tuple(h.tolist())


def _state(rng, h, beta):
    """A seeded state on the Gibbs vector of h at beta; some have empty
    levels, whose conditions reach their limits and are tagged."""
    r = rng.dirichlet(np.full(len(h), 0.7))
    if rng.random() < 0.3:
        r[rng.integers(len(h))] = 0.0
    return validate_state((r / r.sum()).tolist(), gibbs_vector(h, beta).entries)


def _rescale(h, beta, s):
    return tuple(math.ldexp(e, s) for e in h), math.ldexp(beta, -s)


def _case(seed, levels):
    """(rng, resource energies, target energies, beta) of one seeded cooling
    and heating problem; the rng then draws the resource's populations."""
    rng = np.random.default_rng([seed, levels])
    h_r = _energies(rng, int(rng.integers(3, 11)))
    return rng, h_r, _energies(rng, levels), float(rng.uniform(0.3, 2.5))


def _bounds(seed, levels, s):
    rng, h_r, h_t, beta = _case(seed, levels)
    h_r, beta_s = _rescale(h_r, beta, s)
    resource = _state(rng, h_r, beta_s)
    target = GibbsContext(_rescale(h_t, beta, s)[0], beta_s)
    return resource, beta_max(resource, target), beta_min(resource, target)


@pytest.mark.parametrize("s", SCALES)
@pytest.mark.parametrize("levels", SCALAR_LEVELS + ARRAY_LEVELS)
def test_temperature_bounds_rescale(levels, s):
    for seed in range(4):
        resource, cool, heat = _bounds(seed, levels, 0)
        resource_s, cool_s, heat_s = _bounds(seed, levels, s)
        assert resource_s.g.entries == resource.g.entries
        assert math.ldexp(cool.beta_max, -s) == cool_s.beta_max
        assert math.ldexp(heat.beta_min, -s) == heat_s.beta_min
        for report, report_s in ((cool, cool_s), (heat, heat_s)):
            assert len(report_s.per_condition) == len(report.per_condition) == levels - 1
            for (k, b, alpha), (k_s, b_s, alpha_s) in zip(
                report.per_condition, report_s.per_condition
            ):
                assert (k_s, alpha_s) == (k, alpha)
                assert math.ldexp(b, -s) == b_s, (seed, k, b, b_s)


def _gap_cases():
    """(resource, beta, beta~) of seeded random resources of 2-8 levels at
    ratios on both branches, and of the non-interval witnesses."""
    cases = []
    for seed in range(12):
        rng = np.random.default_rng([seed, 37])
        beta = float(rng.uniform(0.3, 2.5))
        resource = _state(rng, _energies(rng, int(rng.integers(2, 9))), beta)
        a = float(rng.choice([rng.uniform(0.25, 0.85), rng.uniform(1.25, 5.0)]))
        cases.append((resource, beta, a * beta))
    for a in (0.3, 0.5, 0.7, 2.0, 3.5):
        cases.append((construct_gap_example(a), 1.0, a))
    return cases


@pytest.mark.parametrize("s", SCALES)
def test_gap_set_ends_rescale(s):
    for resource, beta, beta_tilde in _gap_cases():
        gaps = gap_set(resource, beta, beta_tilde)
        gaps_s = gap_set(resource, math.ldexp(beta, -s), math.ldexp(beta_tilde, -s))
        assert gaps_s.resolution == gaps.resolution
        assert [(iv.lo_closed, iv.hi_closed) for iv in gaps_s.intervals] == [
            (iv.lo_closed, iv.hi_closed) for iv in gaps.intervals
        ]
        assert [(iv.lo, iv.hi) for iv in gaps_s.intervals] == [
            (math.ldexp(iv.lo, s), math.ldexp(iv.hi, s)) for iv in gaps.intervals
        ], (resource, beta, beta_tilde)


def _decisions(seed, s):
    rng = np.random.default_rng([seed, 24])
    h = _energies(rng, int(rng.integers(2, 9)))
    h, beta = _rescale(h, float(rng.uniform(0.3, 2.5)), s)
    source, target = _state(rng, h, beta), _state(rng, h, beta)
    gaps = [math.ldexp(E, s) for E in rng.uniform(0.05, 20.0, 5).tolist()]
    return (
        convertible_via_monotones(source, target, beta),
        relatively_majorizes(source, target),
        [math.ldexp(cooling_monotone(source, beta, E), s) for E in gaps],
        [math.ldexp(heating_monotone(source, beta, E), s) for E in gaps],
        [(k, math.ldexp(E, -s), kind)
         for k, E, kind in critical_energies(target, beta).entries],
    )


@pytest.mark.parametrize("s", SCALES)
def test_verdicts_monotones_and_critical_gaps_rescale(s):
    for seed in range(20):
        assert _decisions(seed, s) == _decisions(seed, 0), seed


def test_cool_repro_rescales():
    # [0, 1, 2] 2^40 at beta = 2^-40: the first doubling probe sat at
    # beta + 1, far beyond every root, and the search stopped 3.7e-6 off.
    def bound(s):
        h, beta = _rescale((0.0, 1.0, 2.0), 1.0, s)
        resource = validate_state((0.6, 0.3, 0.1), gibbs_vector(h, beta).entries)
        return beta_max(resource, GibbsContext(h, beta)).beta_max

    assert bound(0) == 1.064968966187682
    assert math.ldexp(bound(40), 40) == bound(0)


def test_eset_repro_rescales():
    # The a = 0.5 witness at beta = 2^50: each end was the midpoint of a
    # bracket 1e-10 wide in E, wider than the pieces themselves.
    state = construct_gap_example(0.5)
    ends = [(iv.lo, iv.hi) for iv in gap_set(state, 1.0, 0.5).intervals]
    assert ends == [(0.0, 0.47926150820701025), (4.253145045107235, 5.438435320068233)]
    scaled = gap_set(state, math.ldexp(1.0, 50), math.ldexp(0.5, 50))
    scaled_ends = [(math.ldexp(iv.lo, 50), math.ldexp(iv.hi, 50)) for iv in scaled.intervals]
    assert scaled_ends == ends
