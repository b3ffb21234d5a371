import math
import random
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from athermal import (
    EnergyGapSet,
    GapInterval,
    alpha_at,
    compute_elbows,
    construct_gap_example,
    fa_point,
    gap_membership,
    gap_set,
    validate_state,
)
from athermal import esets
from athermal.errors import (
    BisectionError,
    InvalidGrid,
    NonFiniteBeta,
    NonPositiveGap,
    TrivialRatio,
    WOutOfRange,
)
from athermal.esets import (
    ENDPOINT_RESOLUTION,
    MAX_GRID,
    _SCAN_BLOCK,
    _SPARE_STEPS,
    _TANGENT_EPS,
    _curve_dxdy,
    _curve_xy,
    _meets,
    _root,
    _scan,
)
from athermal.majorization import DOMINATION_SLACK


def _free(g):
    return validate_state(g, g)


def _dirichlet(n, seed):
    rng = np.random.default_rng(seed)
    return validate_state(rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n)))


# States for beta~ = beta, where the curve is the diagonal x = y, inside
# every boundary: a free qubit, a pure state, a Dirichlet state and one of
# 150 levels, whose boundary takes the numpy form.
SAME_TEMPERATURE_STATES = {
    "free": _free((0.8, 0.2)),
    "pure": validate_state((1.0, 0.0, 0.0), (0.5, 0.3, 0.2)),
    "dirichlet": _dirichlet(6, 6),
    "150-levels": _dirichlet(150, 150),
}


# A membership gap narrower than one cell of a 10 000-point grid in w: at
# beta~ = 1.5 the curve leaves this resource's region near E = 9.71 and
# re-enters near E = 22.77.
NARROW_GAP = validate_state((0.9961089494163424, 0.0038910505836575876), (0.5, 0.5))


def _swapped_levels():
    """Levels 0 and 1 of energies (0, 1, 50) swapped, level 2 thermal: its
    Gibbs mass is below an ulp of the prefix sum and its ratio r/g lies
    between the other two, so its elbow would repeat the ordinate before it:
    the boundary keeps only the last of the two."""
    g = np.exp(-np.array([0.0, 1.0, 50.0]))
    g /= g.sum()
    return validate_state((g[1], g[0], g[2]), g)


class TestFaPoint:
    def test_rejects_trivial_ratio(self):
        with pytest.raises(TrivialRatio):
            fa_point(1.0, 0.5)

    def test_rejects_w_out_of_range(self):
        with pytest.raises(WOutOfRange):
            fa_point(2.0, 0.0)
        with pytest.raises(WOutOfRange):
            fa_point(2.0, 1.5)

    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_ratio(self, a):
        with pytest.raises(NonFiniteBeta):
            fa_point(a, 0.5)

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
    @pytest.mark.parametrize("beta", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("name", SAME_TEMPERATURE_STATES)
    def test_same_temperature_always_true(self, name, beta):
        resource = SAME_TEMPERATURE_STATES[name]
        # gaps up to one where exp(-beta*E) underflows to 0
        for E in (1e-300, 1e-3 / beta, 2.5 / beta, 800.0 / beta, 1e308):
            assert gap_membership(resource, beta, beta, E)

    def test_free_resource_false_otherwise(self):
        assert not gap_membership(_free((0.8, 0.2)), 1.0, 2.0, 1.0)
        assert not gap_membership(_free((0.8, 0.2)), 1.0, 0.5, 1.0)

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(NonPositiveGap):
            gap_membership(_free((0.8, 0.2)), 1.0, 2.0, 0.0)

    @pytest.mark.parametrize("beta_tilde", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_target(self, beta_tilde):
        with pytest.raises(NonFiniteBeta):
            gap_membership(_free((0.8, 0.2)), 1.0, beta_tilde, 1.0)

    @pytest.mark.parametrize("beta_tilde, expected", [(1.5, True), (0.5, True), (-0.5, False)])
    def test_underflowing_gap_takes_the_curve_limit(self, beta_tilde, expected):
        # exp(-beta*E) is 0.0 at E = 800: the curve point is its w -> 0 limit,
        # (1, 1) cooling, (0, 0) heating and (1, 0) for a population inversion
        resource = validate_state((0.9, 0.1), (0.5, 0.5))
        assert gap_membership(resource, 1.0, beta_tilde, 800.0) is expected
        assert gap_membership(resource, 1.0, beta_tilde, 700.0) is expected

    def test_nonmonotone_pattern(self):
        # this resource admits beta~ = 1/2 at small and at moderate gaps,
        # but not in between
        resource = validate_state((0.2, 0.8), (0.045, 0.955))
        members = [
            gap_membership(resource, 1.0, 0.5, E) for E in (0.5, 2.0, 3.0)
        ]
        assert members == [True, False, True]

    def test_majorizing_source_contains_target_sets(self):
        # a source that majorizes the target reaches every (beta~, E) that
        # the target reaches; the reverse pair misses one of them
        src = validate_state((0.95, 0.05), (0.8, 0.2))
        tgt = validate_state((0.85, 0.15), (0.8, 0.2))
        grid = [(bt, E) for bt in (0.5, 1.5, 2.0) for E in np.linspace(0.05, 6.0, 40)]

        def missed(a, b):
            return [
                (bt, E) for bt, E in grid
                if gap_membership(b, 1.0, bt, E) and not gap_membership(a, 1.0, bt, E)
            ]

        assert sum(gap_membership(tgt, 1.0, bt, E) for bt, E in grid) > 0
        assert missed(src, tgt) == []
        assert missed(tgt, src) != []


class TestGapSet:
    @pytest.mark.parametrize("beta", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("name", SAME_TEMPERATURE_STATES)
    def test_same_temperature_full_interval(self, name, beta):
        resource = SAME_TEMPERATURE_STATES[name]
        if name == "150-levels":
            assert isinstance(compute_elbows(resource).xs, np.ndarray)
        for e_max in (5.0 / beta, None):
            out = gap_set(resource, beta, beta, e_max=e_max)
            top, _, step = esets._grid_span(beta, e_max, esets.DEFAULT_N_GRID)
            assert out.intervals == (GapInterval(0.0, top, False, True),)
            assert out.resolution == step

    @pytest.mark.parametrize("beta_tilde", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_target(self, beta_tilde):
        with pytest.raises(NonFiniteBeta):
            gap_set(_free((0.8, 0.2)), 1.0, beta_tilde, e_max=5.0)

    def test_rejects_e_max_beyond_float_range(self):
        with pytest.raises(NonPositiveGap):
            gap_set(_free((0.8, 0.2)), 1.0, 2.0, e_max=math.inf)
        with pytest.raises(InvalidGrid):  # exp(-beta*e_max) underflows to 0
            gap_set(_free((0.8, 0.2)), 1.0, 2.0, e_max=800.0)

    def test_grid_cap(self):
        resource = validate_state((0.9, 0.1), (0.5, 0.5))
        assert not gap_set(resource, 1.0, 2.0, n_grid=MAX_GRID).is_empty
        with pytest.raises(InvalidGrid):
            gap_set(resource, 1.0, 2.0, n_grid=MAX_GRID + 1)

    def test_blocked_clearance_matches_whole_grid(self):
        resource = construct_gap_example(0.5)
        boundary = compute_elbows(resource)
        n_grid = 3 * _SCAN_BLOCK + 5
        _, w_min, step = esets._grid_span(1.0, None, n_grid)
        ws = (w_min + step * np.arange(n_grid))[::-1]  # ascending in E
        for a in (0.5, 2.0, -1.0):
            E, clearance, member = _scan(resource, 1.0, a, None, n_grid)
            xs, ys = _curve_xy(a, ws)
            alphas = np.interp(ys, boundary.ys, boundary.xs)
            np.testing.assert_array_equal(E, -np.log(ws))
            np.testing.assert_array_equal(clearance, alphas - xs)
            np.testing.assert_array_equal(member, alphas >= xs - DOMINATION_SLACK)
            assert member.any() and not member.all()

    def test_narrow_membership_gap_is_found(self):
        out = gap_set(NARROW_GAP, 1.0, 1.5)
        assert [(iv.lo, iv.hi) for iv in out.intervals] == [
            (0.0, pytest.approx(9.7119822143, abs=1e-9)),
            (pytest.approx(22.7735055533, abs=1e-9), -math.log(1e-10)),
        ]
        assert not gap_membership(NARROW_GAP, 1.0, 1.5, 11.5)
        assert not gap_membership(NARROW_GAP, 1.0, 1.5, 20.0)

    @pytest.mark.parametrize(
        "beta_tilde, end",
        [(0.5, 2.3557131812), (-0.5, 1.1726763658), (-2.0, 0.5863381829),
         (1.5, 2.1430509031), (3.0, 0.6434077720)],
    )
    def test_elbows_sharing_an_ordinate(self, beta_tilde, end):
        # one elbow where two would share an ordinate; the ends are the grid scan's
        resource = _swapped_levels()
        assert len(compute_elbows(resource).ys) == 3
        (interval,) = gap_set(resource, 1.0, beta_tilde).intervals
        assert interval.lo == 0.0 and interval.hi == pytest.approx(end, abs=1e-9)
        assert gap_membership(resource, 1.0, beta_tilde, interval.hi - 1e-9)
        assert not gap_membership(resource, 1.0, beta_tilde, interval.hi + 1e-9)

    def test_e_max_below_one_float_step(self):
        # exp(-beta*e_max) rounds to 1: the grid step is 0 and the curve
        # point (1/2, 1/2) lies on every boundary
        resource = validate_state((0.9, 0.1), (0.5, 0.5))
        for beta_tilde in (2.0, 0.5, -0.5):
            assert gap_set(resource, 1.0, beta_tilde, e_max=1e-17) == EnergyGapSet(
                (GapInterval(0.0, 1e-17, lo_closed=False, hi_closed=True),), 0.0
            )

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

    @pytest.mark.parametrize("a", [1e-300, 1e-4, 1e4, 1e300])
    def test_extreme_ratio_is_a_numeric_failure(self, a):
        # the curve underflows there; no arithmetic error escapes
        with pytest.raises(BisectionError):
            construct_gap_example(a)

    @pytest.mark.parametrize("a", [1.0 - 1e-10, 1.0 + 1e-10, 1.0 - 1e-11, 1.0 + 1e-11])
    def test_ratio_near_one_ends(self, monkeypatch, a):
        # Near a = 1 the construction's curves change only by rounding over
        # much of each root's bracket, and both roots run to adjacent floats
        # (tol = 0): there pushes of one ulp each kept `_root` going without
        # end. The spare-step budget holds at every tol, so each root costs
        # at most 66 evaluations here; the spy stops a runaway long before.
        real = esets._root

        def counted(f, lo, hi, tol):
            calls = 0

            def g(x):
                nonlocal calls
                calls += 1
                if calls > 10_000:
                    raise AssertionError(f"_root still open after {calls - 1} evaluations")
                return f(x)

            return real(g, lo, hi, tol)

        monkeypatch.setattr(esets, "_root", counted)
        resource = construct_gap_example(a)
        assert len(gap_set(resource, 1.0, a).intervals) == 2

    @pytest.mark.parametrize("d", [1e-15, 1e-12, 9e-12])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_rejects_ratio_within_band_of_one(self, d, sign):
        # there the separating dip lies under DOMINATION_SLACK: one interval
        with pytest.raises(TrivialRatio):
            construct_gap_example(1.0 + sign * d)

    def test_rejects_trivial_and_nonpositive(self):
        with pytest.raises(TrivialRatio):
            construct_gap_example(1.0)
        with pytest.raises(TrivialRatio):
            construct_gap_example(-0.5)

    def test_returns_valid_qubit(self):
        state = construct_gap_example(0.5)
        assert state.dim == 2
        assert all(g > 0.0 for g in state.g.entries)


class TestRoot:
    """`_root` takes f with its slope, as the pair (f, f')."""

    def test_brackets_to_tol_or_to_adjacent_floats(self):
        def f(x):
            return x * x - 2.0, 2.0 * x

        assert abs(_root(f, 1.0, 2.0, 1e-10) - math.sqrt(2.0)) < 1e-10
        root = _root(f, 1.0, 2.0, 0.0)
        # at tol = 0 the bracket is two adjacent floats, and root one of them
        assert any(
            (f(lo)[0] >= 0.0) != (f(hi)[0] >= 0.0) and root in (lo, hi)
            for lo, hi in ((math.nextafter(root, 0.0), root),
                           (root, math.nextafter(root, 2.0)))
        )

    def test_steep_convex_f_converges_on_one_end(self):
        # Newton converges on one end; the far end closes in by a push
        def f(x):
            return math.exp(40.0 * x) - 2.0, 40.0 * math.exp(40.0 * x)

        assert _root(f, 0.0, 1.0, 1e-12) == (
            pytest.approx(math.log(2.0) / 40.0, abs=1e-12)
        )

    def test_one_sign_at_both_ends_gives_the_end_nearer_zero(self):
        assert _root(lambda x: (x + 1e-17, 1.0), 0.0, 1.0, 1e-10) == 0.0
        assert _root(lambda x: (x - 1.0 - 1e-17, 1.0), 0.0, 1.0, 1e-10) == 1.0

    @pytest.mark.parametrize("slope", [1e-12, -1e-12, 1.0])
    @pytest.mark.parametrize("zeros", [0.05, 0.5, 0.95])
    def test_rounding_only_costs_a_few_steps_over_bisection(self, slope, zeros):
        # The clearance near e_max: across the bracket it takes only the
        # values -1.1e-16 and 0, whatever its slope says, and only bisection
        # brackets a change. Bisection evaluates f ceil(log2((hi - lo)/tol))
        # times after the two ends; `_root` at most _SPARE_STEPS + 1 more.
        # The end is the midpoint of two evaluated points closer than tol
        # at which f differs in sign.
        lo, hi, tol = 2.0, 23.0, ENDPOINT_RESOLUTION
        bound = math.ceil(math.log2((hi - lo) / tol)) + _SPARE_STEPS + 3
        for seed in range(40):
            calls = []

            def f(x):
                if x in (lo, hi):
                    value = -1.1e-16 if x == lo else 0.0
                else:
                    zero = random.Random(f"{seed} {x!r}").random() < zeros
                    value = 0.0 if zero else -1.1e-16
                calls.append((x, value))
                return value, slope

            root = _root(f, lo, hi, tol)
            assert len(calls) <= bound, (seed, len(calls))
            values = dict(calls)
            below = max(x for x in values if x < root and values[x] < 0.0)
            above = min(x for x in values if x > root)
            assert values[above] == 0.0 and above - below < tol
            assert root == 0.5 * (below + above)


@st.composite
def _scan_cases(draw):
    """A dim-2..4 resource on a random Gibbs vector, beta and beta~, with
    beta~/beta in [-3, 3] and not 1: cooling, heating and inverted targets."""
    dim = draw(st.integers(min_value=2, max_value=4))
    unit = st.floats(min_value=1e-3, max_value=1.0)
    r = np.array(draw(st.lists(unit, min_size=dim, max_size=dim)))
    energies = np.array(
        draw(st.lists(st.floats(0.0, 4.0), min_size=dim, max_size=dim))
    )
    beta = draw(st.floats(0.2, 3.0))
    g = np.exp(-beta * energies)
    ratio = draw(st.floats(-3.0, 3.0).filter(lambda x: x != 1.0))
    return validate_state(r / r.sum(), g / g.sum()), beta, beta * ratio


@given(_scan_cases())
@settings(max_examples=200, deadline=None)
def test_membership_agrees_with_scan(case):
    """gap_membership matches gap_set at the midpoint of every interval and
    of every gap between them, unless the curve lies within the slack there."""
    resource, beta, beta_tilde = case
    a = beta_tilde / beta
    boundary = compute_elbows(resource)
    out = gap_set(resource, beta, beta_tilde)
    e_max = -math.log(1e-10) / beta
    ends = [0.0] + [e for iv in out.intervals for e in (iv.lo, iv.hi)] + [e_max]
    for k, (lo, hi) in enumerate(zip(ends, ends[1:])):
        if hi <= lo:  # an interval that starts at 0 or ends at e_max
            continue
        E = 0.5 * (lo + hi)
        x, y = fa_point(a, math.exp(-beta * E))
        if abs(alpha_at(boundary, y) - x) <= DOMINATION_SLACK:
            continue
        assert gap_membership(resource, beta, beta_tilde, E) is (k % 2 == 1)


@pytest.mark.parametrize("a", [-5.0, -2.0, -1.5, -1.0, -0.5, 0.3, 0.7, 1.5, 3.0, 10.0])
def test_curve_has_one_curvature_sign_on_its_branch(a):
    """F_a(y) = sigma(a logit y) on 2e5 points of its branch, from its own
    formula: concave for a > 0 and a < -1, convex for -1 < a < 0, linear at
    a = -1, as `_curve_dxdy` states; and `_curve_dxdy` is its slope, away
    from the ends of the branch where the difference quotient is poor."""
    ends = (0.5, 1.0) if a > 1.0 else (0.0, 0.5)
    y = np.linspace(*ends, 200_001)[1:-1]
    x = 1.0 / (1.0 + np.exp(-a * np.log(y / (1.0 - y))))
    second = x[:-2] - 2.0 * x[1:-1] + x[2:]
    noise = 1e-15
    if a == -1.0:
        assert np.abs(second).max() <= noise
    else:
        sign = 1.0 if -1.0 < a < 0.0 else -1.0
        assert (sign * second).min() >= -noise
        assert (sign * second > noise).any()
    w = (1.0 - y) / y if a > 1.0 else y / (1.0 - y)
    inner = slice(10_000, -10_000)
    np.testing.assert_allclose(
        _curve_dxdy(a, w[1:-1])[inner],
        ((x[2:] - x[:-2]) / (y[2:] - y[:-2]))[inner],
        rtol=1e-6, atol=1e-9,
    )


def test_ends_match_a_fine_scan():
    """Every membership change of a 200 000-point scan lies within one cell
    of an end of gap_set on the same span, on 200 seeded resources of 2-8
    levels. gap_set may find more: changes narrower than a cell."""
    rng = np.random.default_rng(17)
    n_grid = 200_000
    for _ in range(200):
        dim = int(rng.integers(2, 9))
        r = rng.uniform(1e-3, 1.0, dim)
        beta = float(rng.uniform(0.2, 3.0))
        g = np.exp(-beta * rng.uniform(0.0, 4.0, dim))
        a = float(rng.uniform(-3.0, 3.0))
        resource = validate_state(r / r.sum(), g / g.sum())
        E, _, member = _scan(resource, beta, beta * a, None, n_grid)
        out = gap_set(resource, beta, beta * a, n_grid=n_grid)
        e_max = -math.log(1e-10) / beta
        ends = np.array(
            [e for iv in out.intervals for e in (iv.lo, iv.hi) if 0.0 < e < e_max]
        )
        for k in np.flatnonzero(member[1:] != member[:-1]):
            cell_lo, cell_hi = E[k : k + 2]  # E ascends
            near = (ends >= cell_lo - ENDPOINT_RESOLUTION) & (
                ends <= cell_hi + ENDPOINT_RESOLUTION
            )
            assert near.any(), (resource, beta, a, cell_lo, cell_hi, out)


def _closed_flag_cases():
    """(resource, beta, beta~) of seeded gap sets: resources of 2-6 levels
    (tuple boundaries) and of 150 and 2 048 levels (array boundaries), each
    at one ratio a = beta~/beta from each of (0.2, 0.95), (1.05, 4) and
    (-3, -0.1); and 120 `construct_gap_example` witnesses at their own a."""
    rng = np.random.default_rng(27)
    for dim in [2, 3, 4, 5, 6] * 30 + [150, 2048] * 8:
        r = rng.uniform(1e-3, 1.0, dim)
        beta = float(rng.uniform(0.2, 3.0))
        g = np.exp(-beta * rng.uniform(0.0, 4.0, dim))
        resource = validate_state(r / r.sum(), g / g.sum())
        for ends in ((0.2, 0.95), (1.05, 4.0), (-3.0, -0.1)):
            yield resource, beta, beta * float(rng.uniform(*ends))
    for _ in range(120):
        a = float(rng.choice([rng.uniform(0.25, 0.85), rng.uniform(1.25, 5.0)]))
        yield construct_gap_example(a), 1.0, a


def test_closed_flags_match_membership():
    """Every interval end E > 0 is closed iff `gap_membership` holds at E."""
    checked = 0
    for resource, beta, beta_tilde in _closed_flag_cases():
        for iv in gap_set(resource, beta, beta_tilde).intervals:
            for E, closed in ((iv.lo, iv.lo_closed), (iv.hi, iv.hi_closed)):
                if E > 0.0:
                    assert closed is gap_membership(resource, beta, beta_tilde, E), (
                        resource, beta, beta_tilde, E)
                    checked += 1
    assert checked >= 900


def _tangent_point_reference(a: float, x: float) -> Decimal:
    """The root of c h(x) = x, c = 1/a as the float code rounds it, by
    Newton's method in 60-digit decimals from x."""
    with localcontext() as ctx:
        ctx.prec = 60
        c, one, x = Decimal(1.0 / a), Decimal(1), Decimal(x)
        for _ in range(8):
            xc = x**c
            h = xc / ((one - x) ** c + xc)
            x -= (c * h - x) / (c * c * h * (one - h) / (x * (one - x)) - one)
        return x


def test_tangent_point_matches_a_decimal_reference():
    """The witness's tangency root x0, the crossing of c h(x) with the line
    x, c = 1/a, is within 16 ulps of a 60-digit reference on a seeded grid
    of 203 ratios a in (0.05, 0.97). The largest error on this grid is 12.5
    ulps; the root of the earlier form h'(x) - (1 - h)/(1 - x) was up to
    20.6 ulps off. Near a = 1 the root is ill-conditioned (c h'(x0) - 1
    tends to 0)."""
    rng = np.random.default_rng(203)
    for a in rng.uniform(0.05, 0.97, 203).tolist():
        x0 = _meets(a, 1.0 / a, 1.0, 0.0, _TANGENT_EPS, 0.5 - _TANGENT_EPS)
        error = abs(Decimal(x0) - _tangent_point_reference(a, x0))
        assert error <= 16 * Decimal(math.ulp(x0)), a
