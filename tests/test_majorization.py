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
    gap_membership,
    gap_set,
    gibbs_vector,
    lp_feasible,
    majorization,
    monotones,
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
        assert len(b.xs) == 2
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
        assert len(compute_elbows(state).xs) == 2
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

    def test_rejects_nan(self):
        b = compute_elbows(validate_state((0.9, 0.1), (0.5, 0.5)))
        with pytest.raises(YOutOfRange):
            alpha_at(b, float("nan"))

    def test_clamps_ordinate_within_tolerance_of_the_ends(self):
        b = compute_elbows(validate_state((0.9, 0.1), (0.5, 0.5)))
        assert alpha_at(b, -1e-13) == 0.0
        assert alpha_at(b, 1.0 + 1e-13) == 1.0
        with pytest.raises(YOutOfRange):
            alpha_at(b, -1e-11)

    @given(states(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=200, deadline=None)
    def test_majorizes_ordinate(self, state, y):
        b = compute_elbows(state)
        assert alpha_at(b, y) >= y - 1e-12


class TestSubnormalSegment:
    """A first segment 1e-310 high: its slope x1/y1 overflows to inf, where
    x1 * (y / y1) stays finite. The source reaches 1/12 at the target's first
    elbow ordinate 2.5e-311, short of the target's 1/4."""

    LN2 = 0.6931471805599453

    def _pair(self):
        e = (self.LN2, self.LN2, 713.8013788281542)
        source = validate_state((1 / 3,) * 3, gibbs_vector(e, 1.0).entries)
        e = (715.187673189274, self.LN2, self.LN2)
        target = validate_state((0.25, 0.375, 0.375), gibbs_vector(e, 1.0).entries)
        return source, target

    def test_alpha_on_the_segment(self):
        source, target = self._pair()
        b = compute_elbows(source)
        (x1, y1), y = b.interior()[0], compute_elbows(target).ys[1]
        assert 0.0 < y < y1 < 2.2250738585072014e-308
        assert x1 / y1 == math.inf
        assert alpha_at(b, y) == x1 * (y / y1) == pytest.approx(1 / 12, rel=1e-12)
        assert alpha_at(b, y1) == x1 and alpha_at(b, 0.0) == 0.0

    def test_verdict_and_witness(self):
        source, target = self._pair()
        assert relatively_majorizes(source, target) is False
        assert convertible_via_monotones(source, target, 1.0) is False
        k, E, kind = monotones._failed_check(source, target, 1.0)
        assert (k, kind) == (1, "heating")
        assert E == pytest.approx(715.1876731892742, rel=1e-15)
        assert critical_energies(target, 1.0).entries == ((k, E, kind),)

    def test_gap_set_past_the_far_level(self):
        # At beta~ = -1 the elbows of gaps past 713.8 fall on the segment: its
        # infinite slope let them all in, and cut the first interval at 1e-4
        source, _ = self._pair()
        assert not any(gap_membership(source, 1.0, -1.0, E) for E in (713.9, 730.0))
        (interval,) = gap_set(source, 1.0, -1.0, e_max=740.0).intervals
        assert interval.lo == 0.0
        assert interval.hi == pytest.approx(math.log(1.5), rel=1e-9)

    def test_gap_of_a_subnormal_ordinate(self):
        for y in (2.5e-311, 5e-324, 1e-308):
            E, kind = monotones._gap_of_ordinate(1.0, y)
            assert kind == "heating"
            assert E == pytest.approx(math.log1p(-y) - math.log(y), rel=1e-15)
        # where the odds are finite the formula is log((1 - y) / y), as before
        y = 3e-308
        expected = math.log((1.0 - y) / y) / 2.0
        assert monotones._gap_of_ordinate(2.0, y) == (expected, "heating")


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


class TestTestingBoundary:
    @pytest.mark.parametrize(
        "xs, ys", [((0.0,), (0.0,)), ((0.0, 1.0), (0.0, 0.5, 1.0))]
    )
    def test_rejects_unpaired_or_short_coordinates(self, xs, ys):
        with pytest.raises(ValueError, match="one ordinate per abscissa"):
            majorization.TestingBoundary(xs, ys)

    @pytest.mark.parametrize(
        "xs, ys", [((0.1, 1.0), (0.0, 1.0)), ((0.0, 1.0), (0.0, 0.9))]
    )
    def test_rejects_unpinned_endpoints(self, xs, ys):
        with pytest.raises(ValueError, match=r"from \(0,0\) to \(1,1\)"):
            majorization.TestingBoundary(xs, ys)


def _random_boundary(rng):
    """A tuple boundary of 2-60 elbows: the diagonal, or that of a random
    state of 1-59 levels, some with tied ratios and masses down to 1e-15."""
    dim = int(rng.integers(1, 60))
    g = rng.dirichlet(np.ones(dim))
    if rng.random() < 0.1:
        r = g  # the diagonal
    else:
        r = rng.dirichlet(np.ones(dim)) * 10.0 ** rng.uniform(-15.0, 0.0, dim)
        tied = rng.random(dim) < 0.3
        r[tied] = g[tied]
        r /= r.sum()
    b = compute_elbows(validate_state(r.tolist(), g.tolist()))
    assert isinstance(b.ys, tuple) and 2 <= len(b.ys) <= 60
    return b


def _ascending_ordinates(rng, b):
    """Sorted ordinates in [0, 1] with repeats, as every caller of the walk
    passes them: b's own elbow ordinates, their float neighbours, 0, 1 and
    points in between."""
    pool = [0.0, 1.0]
    for y in b.ys:
        pool += [y, math.nextafter(y, -math.inf), math.nextafter(y, math.inf)]
    pool += rng.random(8).tolist()
    pool = [y for y in pool if 0.0 <= y <= 1.0]
    m = int(rng.integers(1, 2 * len(b.ys) + 8))
    return tuple(sorted(rng.choice(pool, m).tolist()))


def _reference_shortfall(src, xs, ys):
    """The first shortfall by one `alpha_at` bisection per point."""
    for i, (x, y) in enumerate(zip(xs, ys)):
        if alpha_at(src, y) < x - DOMINATION_SLACK:
            return i
    return None


class TestFirstShortfallWalk:
    @pytest.mark.parametrize("seed", range(40))
    def test_walk_alpha_is_alpha_at(self, seed, monkeypatch):
        # With no slack, a point at alpha_at's value passes and one an ulp
        # right of it fails exactly where the walk's alpha is that value.
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(majorization, "DOMINATION_SLACK", 0.0)
        for _ in range(5):
            src = _random_boundary(rng)
            ys = _ascending_ordinates(rng, src)
            alphas = [alpha_at(src, y) for y in ys]
            assert majorization._first_shortfall(src, tuple(alphas), ys) is None
            for i, a in enumerate(alphas):
                xs = tuple(alphas[:i] + [math.nextafter(a, math.inf)] + alphas[i + 1:])
                assert majorization._first_shortfall(src, xs, ys) == i

    @pytest.mark.parametrize("seed", range(40))
    def test_first_shortfall_is_reference(self, seed):
        rng = np.random.default_rng([1, seed])
        verdicts = set()
        for round_ in range(10):
            src = _random_boundary(rng)
            ys = _ascending_ordinates(rng, src)
            # abscissae around alpha, within the slack or, every other
            # round, some of them past it
            steps = [-1e-3, 0.0, DOMINATION_SLACK, 2 * DOMINATION_SLACK, 1e-3]
            p = [0.4, 0.3, 0.3, 0.0, 0.0] if round_ % 2 else [0.4, 0.3, 0.2, 0.05, 0.05]
            step = rng.choice(steps, len(ys), p=p)
            xs = tuple(alpha_at(src, y) + s for y, s in zip(ys, step.tolist()))
            i = majorization._first_shortfall(src, xs, ys)
            assert i == _reference_shortfall(src, xs, ys)
            verdicts.add(i is None)
            # the 2-point call of monotones._ordinate_beside, around 1/2
            tgt = _random_boundary(rng)
            y, t = 0.5 + rng.uniform(-1e-12, 1e-12), monotones.DEGENERATE_PERTURBATION
            while t > 1e-15:
                pair = (y - t, y + t)
                xs = tuple(alpha_at(tgt, b) for b in pair)
                assert (majorization._first_shortfall(src, xs, pair)
                        == _reference_shortfall(src, xs, pair))
                t /= 2.0
        assert verdicts == {True, False}
