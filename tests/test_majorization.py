import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from athermal import (
    alpha_at,
    compute_elbows,
    convertible_via_monotones,
    critical_energies,
    lp_feasible,
    relatively_majorizes,
    validate_state,
)
from athermal.errors import YOutOfRange
from athermal.majorization import DOMINATION_SLACK


_weight = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)


@st.composite
def states(draw):
    dim = draw(st.integers(min_value=1, max_value=8))
    rw = draw(st.lists(_weight, min_size=dim, max_size=dim))
    gw = draw(st.lists(_weight, min_size=dim, max_size=dim))
    r = [x / math.fsum(rw) for x in rw]
    g = [x / math.fsum(gw) for x in gw]
    return validate_state(r, g)


# Weights spread log-uniformly over twelve decades, so segments carry masses
# down to 1e-12 next to ones of order 1.
_log_weight = st.floats(min_value=-12.0, max_value=0.0)
# Gibbs weights of tail levels, below an ulp of 1, so the prefix sum of g
# rounds onto 1 before the last level.
_log_tail = st.floats(min_value=-20.0, max_value=-17.0)


@st.composite
def wide_pairs(draw):
    """Unnormalized (r, g) weights of dim 1..64, plus up to two tail levels
    whose ratio r/g of 1e-21 is below every other level's."""
    dim = draw(st.integers(min_value=1, max_value=64))
    rw = draw(st.lists(_log_weight, min_size=dim, max_size=dim))
    gw = draw(st.lists(_log_weight, min_size=dim, max_size=dim))
    tail = draw(st.lists(_log_tail, max_size=2))
    rw += [e - 21.0 for e in tail]
    gw += tail
    return [10.0**e for e in rw], [10.0**e for e in gw]


def _normalized(w):
    total = math.fsum(w)
    return [x / total for x in w]


def _wide_state(weights):
    r, g = weights
    return validate_state(_normalized(r), _normalized(g))


def _resolved(elbows, tol=1e-15):
    """Elbows farther than tol below the endpoint's ordinate; nearer ones
    are folded into (1, 1) or kept depending on how the prefix sums round."""
    return [p for p in elbows[:-1] if 1.0 - p[1] > tol] + [elbows[-1]]


def _thermalized(state, lam):
    r, g = state.r.entries, state.g.entries
    return validate_state([lam * a + (1.0 - lam) * b for a, b in zip(r, g)], g)


def _reference_violation(source, target):
    """Largest excess of the target boundary over the source's at the
    target's elbows, from plain prefix sums: no merging, no slack."""

    def polyline(state):
        r = np.asarray(state.r.entries)
        g = np.asarray(state.g.entries)
        order = np.argsort(-(r / g), kind="stable")
        return (np.concatenate([[0.0], np.cumsum(r[order])]),
                np.concatenate([[0.0], np.cumsum(g[order])]))

    sx, sy = polyline(source)
    tx, ty = polyline(target)
    return float(np.max(tx - np.interp(ty, sy, sx)))


class TestComputeElbows:
    def test_worked_example(self):
        state = validate_state((0.7, 0.2, 0.1), (0.2, 0.3, 0.5))
        b = compute_elbows(state)
        expected = ((0.0, 0.0), (0.7, 0.2), (0.9, 0.5), (1.0, 1.0))
        assert np.allclose(b.elbows, expected, atol=1e-15)

    def test_free_state_is_diagonal(self):
        g = (0.6, 0.3, 0.1)
        b = compute_elbows(validate_state(g, g))
        assert b.is_diagonal
        assert b.elbows == ((0.0, 0.0), (1.0, 1.0))

    def test_collinear_segments_merge(self):
        # two levels with equal ratio r/g collapse into one segment
        state = validate_state((0.4, 0.2, 0.4), (0.2, 0.1, 0.7))
        b = compute_elbows(state)
        assert len(b.elbows) == 3

    def test_endpoints_pinned(self):
        state = validate_state((1.0, 0.0), (0.5, 0.5))
        b = compute_elbows(state)
        assert b.elbows[0] == (0.0, 0.0)
        assert b.elbows[-1] == (1.0, 1.0)

    @given(states())
    @settings(max_examples=200, deadline=None)
    def test_elbow_invariants(self, state):
        b = compute_elbows(state)
        xs = [p[0] for p in b.elbows]
        ys = [p[1] for p in b.elbows]
        assert b.elbows[0] == (0.0, 0.0) and b.elbows[-1] == (1.0, 1.0)
        assert all(x1 < x2 for x1, x2 in zip(xs, xs[1:]))
        assert all(y1 <= y2 for y1, y2 in zip(ys, ys[1:]))
        assert all(x >= y - 1e-12 for x, y in b.elbows)
        # alpha (x as a function of y) is concave: slopes dy/dx non-decreasing
        slopes = [
            (y2 - y1) / (x2 - x1)
            for (x1, y1), (x2, y2) in zip(b.elbows, b.elbows[1:])
        ]
        assert all(s2 >= s1 - 1e-9 for s1, s2 in zip(slopes, slopes[1:]))

    def test_tail_below_an_ulp_folds_into_endpoint(self):
        # the Gibbs tail rounds away in the prefix sum: no elbow at y == 1
        state = validate_state((1.0, 0.0), (1.0, 4e-18))
        assert compute_elbows(state).is_diagonal
        assert critical_energies(state, 1.0).entries == ()
        assert convertible_via_monotones(state, state, 1.0)

    def test_small_mass_elbow_kept(self):
        # slopes 3, 2 and ~1 on segments of mass 1e-8: three distinct elbows
        state = validate_state((3e-8, 2e-8, 1 - 5e-8), (1e-8, 1e-8, 1 - 2e-8))
        assert compute_elbows(state).elbows == (
            (0.0, 0.0), (3e-8, 1e-8), (5e-8, 2e-8), (1.0, 1.0)
        )

    @given(wide_pairs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_tie_invariance(self, weights, data):
        # splitting a level into tied copies, then permuting all levels
        r, g = weights
        i = data.draw(st.integers(min_value=0, max_value=len(r) - 1))
        parts = data.draw(st.lists(st.floats(min_value=0.05, max_value=1.0),
                                   min_size=2, max_size=4))
        share = [p / math.fsum(parts) for p in parts]
        split_r = r[:i] + [r[i] * p for p in share] + r[i + 1:]
        split_g = g[:i] + [g[i] * p for p in share] + g[i + 1:]
        perm = data.draw(st.permutations(range(len(split_r))))
        split = _wide_state(([split_r[k] for k in perm], [split_g[k] for k in perm]))
        whole = _resolved(compute_elbows(_wide_state(weights)).elbows)
        tied = _resolved(compute_elbows(split).elbows)
        assert len(tied) == len(whole)
        assert np.allclose(tied, whole, rtol=0.0, atol=1e-15)


class TestAlphaAt:
    def test_exact_at_elbow(self):
        state = validate_state((0.7, 0.2, 0.1), (0.2, 0.3, 0.5))
        b = compute_elbows(state)
        # exact at stored elbows (no interpolation noise)
        for x, y in b.interior():
            assert alpha_at(b, y) == x
        assert alpha_at(b, 0.2) == 0.7
        assert alpha_at(b, 0.5) == pytest.approx(0.9, abs=1e-15)

    def test_interpolated_value(self):
        state = validate_state((0.7, 0.2, 0.1), (0.2, 0.3, 0.5))
        b = compute_elbows(state)
        assert alpha_at(b, 0.35) == pytest.approx(0.8, abs=1e-15)

    def test_rejects_out_of_range(self):
        b = compute_elbows(validate_state((0.9, 0.1), (0.5, 0.5)))
        with pytest.raises(YOutOfRange):
            alpha_at(b, 1.5)

    @given(states(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_majorizes_ordinate(self, state, y):
        b = compute_elbows(state)
        assert alpha_at(b, y) >= y - 1e-12


class TestRelativelyMajorizes:
    def test_reflexive(self):
        state = validate_state((0.7, 0.2, 0.1), (0.2, 0.3, 0.5))
        assert relatively_majorizes(state, state)

    def test_anything_majorizes_free(self):
        g = (0.5, 0.3, 0.2)
        state = validate_state((0.8, 0.1, 0.1), g)
        assert relatively_majorizes(state, validate_state(g, g))

    def test_free_does_not_majorize_athermal(self):
        g = (0.5, 0.3, 0.2)
        state = validate_state((0.8, 0.1, 0.1), g)
        assert not relatively_majorizes(validate_state(g, g), state)

    def test_strict_qubit_pair(self):
        mild = validate_state((0.8, 0.2), (0.75, 0.25))
        cold = validate_state((0.9, 0.1), (0.75, 0.25))
        assert relatively_majorizes(cold, mild)
        assert not relatively_majorizes(mild, cold)

    @given(states(), states())
    @settings(max_examples=150, deadline=None)
    def test_decision_matches_pointwise_domination(self, a, b):
        ba, bb = compute_elbows(a), compute_elbows(b)
        verdict = relatively_majorizes(a, b)
        dominated = all(
            alpha_at(ba, y) >= x - 1e-12 for x, y in bb.elbows
        )
        assert verdict == dominated

    def test_small_mass_false_merge_repro(self):
        source = validate_state((3e-8, 2e-8, 1 - 5e-8), (1e-8, 1e-8, 1 - 2e-8))
        target = validate_state((2.8e-8, 1 - 2.8e-8), (1e-8, 1 - 1e-8))
        assert relatively_majorizes(source, target)
        assert convertible_via_monotones(source, target, 1.0)
        assert lp_feasible(source.r, source.g, target.r, target.g, tol=1e-12).feasible

    @given(wide_pairs(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_partial_thermalization_is_reachable(self, weights, lam):
        source = _wide_state(weights)
        target = _thermalized(source, lam)
        assert _reference_violation(source, target) <= DOMINATION_SLACK
        assert relatively_majorizes(source, target)
        assert convertible_via_monotones(source, target, 1.0)

    @given(wide_pairs(), st.floats(min_value=0.0, max_value=0.9))
    @settings(max_examples=200, deadline=None)
    def test_reverse_thermalization_is_refused(self, weights, lam):
        target = _wide_state(weights)
        source = _thermalized(target, lam)
        # a tenth of the slack above it clears rounding in 64-term prefix sums
        assume(_reference_violation(source, target) > 1.1 * DOMINATION_SLACK)
        assert not relatively_majorizes(source, target)


class TestBoundaryCsv:
    def test_round_trip_precision(self):
        state = validate_state((0.7, 0.2, 0.1), (0.2, 0.3, 0.5))
        b = compute_elbows(state)
        text = b.to_csv()
        rows = [line.split(",") for line in text.strip().splitlines()]
        parsed = tuple((float(x), float(y)) for x, y in rows)
        assert parsed == b.elbows
