"""Feasible energy-gap sets for driving a qubit to a fixed target
temperature, the parametric elbow curve these live on, and the explicit
construction of resources whose gap set is not an interval.

With a = beta~/beta and w = exp(-beta*E), the target qubit's non-trivial
elbow traces a curve as E varies; a gap is feasible iff that elbow lies
inside the resource's testing region. The sign pattern of the clearance
along the curve can change more than once, so the set of feasible gaps can
be a union of disjoint intervals.

`gap_set` finds those changes as roots rather than on a grid. The curve is
x = F_a(y) = sigma(a * logit y), with y in [1/2, 1) for a > 1 and in
(0, 1/2] for a < 1, where F_a has one sign of curvature (`_curve_dxdy`).
Between two elbow ordinates the resource boundary is a line, so there the
clearance is a line minus F_a and changes sign at most twice, once on each
side of its one extremum; `_root` brackets each change. Its Newton steps
take the exact slope in E: with dy/dE = +-beta y(1 - y) (+ on the cooling
branch), (s - F_a'(y)) dy/dE for the clearance on a piece of boundary slope
s, and -F_a''(y) dy/dE for the slope s - F_a'(y) whose zero is the extremum.

numpy is imported only where arrays are built: a qubit's gap set loads none.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import AthermalityState, _check_beta, _check_gap, validate_state
from .errors import (
    BisectionError,
    InvalidGrid,
    NonFiniteBeta,
    NonPositiveGap,
    TrivialRatio,
    WOutOfRange,
)
from .majorization import (
    TestingBoundary,
    _dominates,
    _margin,
    alpha_at,
    alphas_at,
    compute_elbows,
)

if TYPE_CHECKING:
    import numpy as np

DEFAULT_N_GRID = 10_000
# Largest grid (eset, gap_set, curve): about 8 MB per float array.
MAX_GRID = 1_000_000
# Default depth: beyond w = 1e-10 the qubit Gibbs vector is numerically pure
# and membership no longer changes.
DEFAULT_W_MIN = 1e-10
ENDPOINT_RESOLUTION = 1e-10  # bracket width in beta*E of each interval end

_TANGENT_EPS = 1e-9
# `construct_gap_example` refuses |a - 1| below this, where the dip parting
# the witness's intervals falls under DOMINATION_SLACK: up to 9.0e-12 its
# gap set was one interval, from 9.1e-12 two. The band moves with the slack.
_NEAR_ONE = 1e-11
# Steps `_root` may spend beyond bisection's count before it only bisects.
_SPARE_STEPS = 8
# Points per block of `_scan` (64 KiB float arrays). Whole-grid temporaries
# above glibc's 128 KiB mmap threshold can be handed back to the OS and
# faulted in again on every scan, depending on the heap's layout.
_SCAN_BLOCK = 8192


def _curve_xy(a: float, w):
    """Target-qubit elbow (x, y) at curve parameter w, a float or an array."""
    if not math.isfinite(a):
        raise NonFiniteBeta(f"ratio a = beta~/beta must be finite, got {a!r}")
    if a > 1.0:
        return 1.0 / (1.0 + w**a), 1.0 / (1.0 + w)
    y = w / (1.0 + w)
    if a <= 0.0:
        return 1.0 / (1.0 + w ** (-a)), y  # w^a/(1+w^a), overflow-safe form
    wa = w**a
    return wa / (1.0 + wa), y


def _curve_dxdy(a: float, w):
    """Slope F_a'(y) = a x(1 - x)/(y(1 - y)) of the curve at parameter w, a
    float or an array, in a form finite for every w in (0, 1].

    F_a has one sign of curvature on its branch. With L = logit y, F_a is
    sigma(a L) and F_a'' = a x(1 - x)((2y - 1) - a(2x - 1))/(y(1 - y))^2.
    Write t = L/2, so that 2y - 1 = tanh t and 2x - 1 = tanh(a t); the
    bracket is phi(t) = tanh t - |a| tanh(|a| t), odd in t, and for t > 0
    positive if |a| < 1 (|a| tanh(|a| t) < tanh(|a| t) < tanh t), negative
    if |a| > 1 (the reverse) and zero if |a| = 1. So sign F_a'' is
    sign(a) sign(t) sign(1 - |a|): negative (concave) for a > 1 on the
    cooling branch (t > 0) and for 0 < a < 1 or a < -1 on the heating branch
    (t < 0), positive (convex) for -1 < a < 0, and F_a is linear at a = -1
    (x = 1 - y) and at a = 0 (x = 1/2).
    """
    wa = w ** abs(a)
    return a * (wa / w) * ((1.0 + w) / (1.0 + wa)) ** 2


def fa_point(a: float, w: float) -> tuple[float, float]:
    """Elbow (x, y) of the target qubit pair at curve parameter w.

    Cooling branch for a > 1, heating branch for a < 1; a = 1 is rejected
    as trivial (the target equals the background Gibbs state).
    """
    if a == 1.0:
        raise TrivialRatio("a = 1 leaves the qubit at the background temperature")
    if not (0.0 < w <= 1.0):
        raise WOutOfRange(f"w must lie in (0, 1], got {w!r}")
    return _curve_xy(a, w)


def _grid_span(
    beta: float, e_max: float | None, n_grid: int
) -> tuple[float, float, float]:
    """(e_max, w_min, step) of the n_grid-point grid ascending in
    w = exp(-beta*E) from w_min = exp(-beta*e_max) in steps of
    (1 - w_min)/n_grid, so E descends to one step short of 0: `gap_set`'s
    span and `_scan`'s points. The default e_max puts w_min at DEFAULT_W_MIN."""
    _check_beta(beta)
    if e_max is None:
        e_max = -math.log(DEFAULT_W_MIN) / beta
    if not (math.isfinite(e_max) and e_max > 0.0):
        raise NonPositiveGap(f"e_max must be finite and > 0, got {e_max!r}")
    if not 100 <= n_grid <= MAX_GRID:
        raise InvalidGrid(f"n_grid must be in [100, {MAX_GRID}], got {n_grid}")
    w_min = math.exp(-beta * e_max)
    if w_min == 0.0:
        raise InvalidGrid(f"exp(-beta*e_max) underflows at e_max = {e_max!r}")
    return e_max, w_min, (1.0 - w_min) / n_grid


def _scan(
    resource: AthermalityState,
    beta: float,
    beta_tilde: float,
    e_max: float | None,
    n_grid: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `eset` CSV's columns (E, clearance alpha - x, `_dominates`) at the
    points of the `_grid_span` grid, ascending in E."""
    import numpy as np

    _, w_min, step = _grid_span(beta, e_max, n_grid)
    a = beta_tilde / beta
    boundary = compute_elbows(resource)
    ws = (w_min + step * np.arange(n_grid))[::-1]
    clearance = np.empty(n_grid)
    member = np.empty(n_grid, dtype=bool)
    for k in range(0, n_grid, _SCAN_BLOCK):
        xs, ys = _curve_xy(a, ws[k : k + _SCAN_BLOCK])
        alphas = alphas_at(boundary, ys)
        clearance[k : k + _SCAN_BLOCK] = alphas - xs
        member[k : k + _SCAN_BLOCK] = _dominates(alphas, xs)
    return -np.log(ws) / beta, clearance, member


def _root(f, lo: float, hi: float, tol: float) -> float:
    """Midpoint of a bracket lo < hi of the sign change of f (f >= 0 on one
    side, f < 0 on the other) narrower than tol, or as narrow as floats
    allow; or the end nearer zero if f has one sign at both ends: the change
    then lies at that end, within rounding. f(x) gives the pair (f, f').

    Safeguarded Newton inside the bracket (Numerical Recipes, 3rd ed.,
    section 9.4, `rtsafe`) from the secant point of the ends, or from their
    midpoint if that point is not strictly inside. Each value moves the end
    on its side to x, and a step that leaves the bracket or fails to halve
    the step before is replaced by the midpoint. Newton steps that converge
    on one end leave the far end where it was, so a step shorter than
    max(tol/2, 1 ulp) is pushed to that length towards the far end, past the
    root, and the far end closes in. Where f changes by rounding only over
    a span wider than tol (the clearance near e_max; the witness
    construction's curves at ratios near 1, at tol = 0, where a push moves
    one ulp), no step but the midpoint says anything: at every tol, after k
    steps the bracket is at most 2^(_SPARE_STEPS - k) of its first width,
    by a midpoint step wherever another could leave it wider, so `_root`
    takes at most _SPARE_STEPS + 1 steps more than bisection.
    """
    f_lo, f_hi = f(lo)[0], f(hi)[0]
    lo_side = f_lo >= 0.0
    if (f_hi >= 0.0) == lo_side:
        return lo if abs(f_lo) <= abs(f_hi) else hi
    cap = (hi - lo) * 2.0**_SPARE_STEPS
    step = before = hi - lo  # lengths of the last step and of the one before
    x = lo + (hi - lo) * (f_lo / (f_lo - f_hi))
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    while True:
        value, slope = f(x)
        if (value >= 0.0) == lo_side:
            lo, far = x, hi
        else:
            hi, far = x, lo
        mid = 0.5 * (lo + hi)
        if hi - lo < tol or not lo < mid < hi:
            return mid
        cap *= 0.5
        delta = value / slope if slope else math.inf  # Newton: x - delta
        short = max(0.5 * tol, math.ulp(x))
        if abs(delta) < short:
            nxt = x + math.copysign(short, far - x)
        elif abs(delta) <= 0.5 * before:
            nxt = x - delta
        else:
            nxt = mid
        if hi - lo > cap or not lo < nxt < hi:
            nxt = mid
        step, before, x = abs(nxt - x), step, nxt


def gap_membership(
    resource: AthermalityState, beta: float, beta_tilde: float, E: float
) -> bool:
    """True iff a gap-E qubit can be driven from beta to beta_tilde."""
    _check_gap(E)
    _check_beta(beta)
    # w = exp(-beta*E) may underflow to 0, where the curve is still finite
    x, y = _curve_xy(beta_tilde / beta, math.exp(-beta * E))
    return _dominates(alpha_at(compute_elbows(resource), y), x)


@dataclass(frozen=True)
class GapInterval:
    """One interval of feasible gaps, lo < hi, with a closed flag per end.

    An end found by a root is the midpoint of a sign-change bracket narrower
    than ENDPOINT_RESOLUTION in beta*E, and its flag is `gap_membership` at
    that midpoint: it can flip with rounding and says nothing beyond that one
    point's membership. An end at e_max is closed (the membership there
    holds), and an end at 0 is open (E = 0 is no gap)."""

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool


@dataclass(frozen=True)
class EnergyGapSet:
    """Disjoint, sorted intervals of feasible energy gaps. Each interval's
    closed flags are `gap_membership` at its returned ends, no more
    (`GapInterval`)."""

    intervals: tuple[GapInterval, ...]
    # w step of the n_grid-point grid: the eset CSV's spacing; gaps below
    # that of its last point, one step short of w = 1, are not examined
    resolution: float

    @property
    def is_empty(self) -> bool:
        return not self.intervals


def _pieces(boundary: TestingBoundary, a: float, w_lo: float, w_hi: float):
    """(ws, alphas, slopes): the span [w_lo, w_hi] of the curve parameter cut
    at every elbow ordinate of the boundary strictly inside it, ascending in
    w; the boundary abscissa at each cut, as `alpha_at` gives it; and the
    slope d(alpha)/dy of the boundary segment under each piece. In the
    boundary's own form: lists for tuples, arrays for arrays. The elbow
    ordinates strictly increase (`compute_elbows`), so no segment is flat.
    """
    cooling = a > 1.0  # y = 1/(1 + w) descends as w ascends
    if cooling:
        w_lo, w_hi = w_hi, w_lo  # ascending in y
    y_lo, y_hi = _curve_xy(a, w_lo)[1], _curve_xy(a, w_hi)[1]
    xs, ys = boundary.xs, boundary.ys
    # the segments i - 1 .. j - 1 lie under the span; each after the first
    # starts at a cut
    if isinstance(xs, tuple):
        i = bisect_right(ys, y_lo)
        j = max(bisect_left(ys, y_hi), i)
        cuts = ys[i:j]
        ws = [w_lo, *[(1.0 - y) / y if cooling else y / (1.0 - y) for y in cuts], w_hi]
        alphas = [alpha_at(boundary, y_lo), *xs[i:j], alpha_at(boundary, y_hi)]
        slopes = [(xs[k + 1] - xs[k]) / (ys[k + 1] - ys[k]) for k in range(i - 1, j)]
    else:
        import numpy as np

        i = int(np.searchsorted(ys, y_lo, "right"))
        j = max(int(np.searchsorted(ys, y_hi)), i)
        rise, run = np.diff(ys[i - 1 : j + 1]), np.diff(xs[i - 1 : j + 1])
        cuts = ys[i:j]
        ws = np.concatenate(
            ([w_lo], (1.0 - cuts) / cuts if cooling else cuts / (1.0 - cuts), [w_hi])
        )
        alpha_lo, alpha_hi = alphas_at(boundary, [y_lo, y_hi])
        alphas = np.concatenate(([alpha_lo], xs[i:j], [alpha_hi]))
        slopes = run / rise
    if cooling:
        return ws[::-1], alphas[::-1], slopes[::-1]
    return ws, alphas, slopes


def _knots(a: float, w, alpha):
    """(h, y, dxdy) at knots w with boundary abscissae alpha, floats or
    arrays: the `_margin` of the curve point, its ordinate and the curve's
    slope there."""
    x, y = _curve_xy(a, w)
    return _margin(alpha, x), y, _curve_dxdy(a, w)


def _turns(a: float, h_p, h_q, d_p, d_q, length):
    """Whether the clearance can change sign twice on a piece, floats or
    arrays, from its values h and slopes d in y at the ends p and q and the
    signed length y_q - y_p of the piece.

    On a piece the clearance is the boundary's line minus F_a, so it is
    convex in y where F_a is concave and concave where F_a is convex. A
    convex clearance that is >= 0 at both ends dips below 0 only if its end
    tangents slope towards each other and meet below 0, since it lies above
    both; the same holds for minus a concave one that is < 0 at both ends.
    The tangents meet at height N/(d_p - d_q), N = d_p h_q - d_q h_p -
    d_p d_q length; given the slopes' signs, d_p - d_q has the sign of
    -s length, s = +1 for a convex clearance and -1 for a concave one, so
    they meet on the far side of 0 iff N length > 0.
    """
    s = 1.0 if a > 0.0 or a < -1.0 else -1.0
    return (
        ((h_p >= 0.0) == (s > 0.0))
        & ((h_q >= 0.0) == (s > 0.0))
        & (s * d_p * length < 0.0)
        & (s * d_q * length > 0.0)
        & ((d_p * h_q - d_q * h_p - d_p * d_q * length) * length > 0.0)
    )


def gap_set(
    resource: AthermalityState,
    beta: float,
    beta_tilde: float,
    e_max: float | None = None,
    n_grid: int = DEFAULT_N_GRID,
) -> EnergyGapSet:
    """The feasible-gap set over E in (0, e_max], from per-piece roots.

    The curve parameter w = exp(-beta*E) runs from w_min = exp(-beta*e_max)
    (e_max defaults to -ln(DEFAULT_W_MIN)/beta) to w_top, the last point of
    the n_grid-point grid of `_grid_span`, one step short of w = 1; the
    membership at w_top holds on to E -> 0. That span is cut at the
    resource's elbow ordinates (`_pieces`). On each piece the membership
    changes at most twice: once if it differs at the two ends, twice only if
    `_turns` and the clearance's extremum, found by `_root` on its slope, has
    the other membership. Each change is bracketed by `_root` to
    ENDPOINT_RESOLUTION in beta*E by Newton steps on the exact slopes in E
    of the module docstring, and the end it gives is the midpoint of that
    bracket, closed iff feasible there; energies times 2^s at beta times
    2^-s give every end times 2^s, bit for bit. Every step decides by the
    sign of `_margin`, the rule of `gap_membership`; no grid is built.
    Where the margin changes by rounding only, over a span wider than the
    resolution (at the absolute DOMINATION_SLACK, near e_max), `_root`
    bisects, and any end in that span is one within rounding.
    """
    e_max, w_min, step = _grid_span(beta, e_max, n_grid)
    a = beta_tilde / beta
    boundary = compute_elbows(resource)
    tuples = isinstance(boundary.xs, tuple)

    rate = beta if a > 1.0 else -beta  # dy/dE = rate * y(1 - y)

    def crossing(s: float):
        """The clearance at gap E, the `_margin` of the curve point (>= 0 iff
        `_dominates`), and its slope (s - F_a'(y)) dy/dE in E on a piece of
        boundary slope s, with y(1 - y) = w/(1 + w)^2."""
        def f(E: float) -> tuple[float, float]:
            w = math.exp(-beta * E)
            x, y = _curve_xy(a, w)
            alpha = alpha_at(boundary, y) if tuples else float(alphas_at(boundary, y))
            return (_margin(alpha, x),
                    (s - _curve_dxdy(a, w)) * rate * w / ((1.0 + w) * (1.0 + w)))
        return f

    def turn(s: float):
        """s - F_a'(y), zero at the clearance's extremum on a piece of slope
        s, and its slope -F_a''(y) dy/dE in E, which `_curve_dxdy`'s F_a''
        puts as -rate F_a'(y) ((2y - 1) - a(2x - 1))."""
        def f(E: float) -> tuple[float, float]:
            w = math.exp(-beta * E)
            x, y = _curve_xy(a, w)
            d = _curve_dxdy(a, w)
            return s - d, -rate * d * ((2.0 * y - 1.0) - a * (2.0 * x - 1.0))
        return f

    ws, alphas, slopes = _pieces(boundary, a, w_min, w_min + step * (n_grid - 1))
    if tuples:  # its few pieces one by one
        hs, ys, dxdy = zip(*[_knots(a, w, alpha) for w, alpha in zip(ws, alphas)])
        inside = [h >= 0.0 for h in hs]
        todo = [
            k for k, slope in enumerate(slopes)
            if inside[k] != inside[k + 1] or _turns(
                a, hs[k], hs[k + 1], slope - dxdy[k], slope - dxdy[k + 1],
                ys[k + 1] - ys[k])
        ]
    else:  # the pieces where a change may lie, in whole-array steps
        import numpy as np

        # F_a' overflows to inf at a subnormal w_min where |a| < 1, as floats do
        with np.errstate(all="ignore"):
            hs, ys, dxdy = _knots(a, ws, alphas)
            inside = hs >= 0.0
            turns = _turns(a, hs[:-1], hs[1:], slopes - dxdy[:-1],
                           slopes - dxdy[1:], np.diff(ys))
        todo = np.flatnonzero((inside[:-1] != inside[1:]) | turns).tolist()

    # (E, feasible at E) where membership changes, E descending
    roots: list[tuple[float, bool]] = []
    for k in todo:  # E descends from E_p to E_q over the piece
        E_p, E_q = -math.log(ws[k]) / beta, -math.log(ws[k + 1]) / beta
        s = float(slopes[k])
        f, ends = crossing(s), [E_p, E_q]
        if inside[k] == inside[k + 1]:  # `_turns`: the extremum, at slope 0
            E_e = _root(turn(s), E_q, E_p, ENDPOINT_RESOLUTION / beta)
            if (f(E_e)[0] >= 0.0) == inside[k]:
                continue
            ends.insert(1, E_e)
        for hi, lo in zip(ends, ends[1:]):
            E = _root(f, lo, hi, ENDPOINT_RESOLUTION / beta)
            roots.append((E, f(E)[0] >= 0.0))

    # w ascending means E descending, and membership flips at every change:
    # closed at e_max if feasible there, open at E -> 0 if feasible on to it
    ends = ([(e_max, True)] if inside[0] else []) + roots
    if inside[-1]:
        ends.append((0.0, False))
    intervals = [
        GapInterval(lo[0], hi[0], lo[1], hi[1])
        for hi, lo in zip(ends[::2], ends[1::2]) if hi[0] > lo[0]
    ]
    intervals.reverse()  # ascending in E
    return EnergyGapSet(tuple(intervals), step)


def _curve_height(x: float, a: float) -> tuple[float, float]:
    """Curve ordinate as a function of abscissa, with c = 1/a,
    h(x) = x^c/((1-x)^c + x^c) = sigma(c logit x), and its slope
    h'(x) = c h(1 - h)/(x(1 - x))."""
    c = 1.0 / a
    num = x**c
    h = num / ((1.0 - x) ** c + num)
    return h, c * h * (1.0 - h) / (x * (1.0 - x))


def _meets(a: float, c: float, m: float, b: float, lo: float, hi: float) -> float:
    """The x in [lo, hi] at which the scaled curve c h(x) meets the line
    m x + b, the `_root` of c h(x) - (b + m x) to the last float, whose slope
    is c h'(x) - m; the ends must lie on either side of that crossing."""
    def f(x: float) -> tuple[float, float]:
        h, dh = _curve_height(x, a)
        return c * h - (b + m * x), c * dh - m

    if (f(lo)[0] >= 0.0) == (f(hi)[0] >= 0.0):
        raise BisectionError("no sign change on the given bracket")
    return _root(f, lo, hi, 0.0)


def _construct_heating_example(a: float) -> AthermalityState:
    """Tangent-line construction for 0 < a < 1 (heating branch)."""
    # a line through (1, 1) touches the curve (h' = (1 - h)/(1 - x)) where h/a = x
    x0 = _meets(a, 1.0 / a, 1.0, 0.0, _TANGENT_EPS, 0.5 - _TANGENT_EPS)
    slope = (1.0 - _curve_height(x0, a)[0]) / (1.0 - x0)  # of the tangent
    c_half = (1.0 - slope) / 2.0  # half the tangent's ordinate at x = 0
    m = 1.0 - c_half  # the slope of the lowered line
    x4 = -c_half / m  # x-intercept of the lowered line
    x2 = _meets(a, 1.0, m, c_half, x4, x0)
    x1 = 0.5 * (x2 - x4)
    y1 = c_half + m * x1
    if y1 <= 0.0:
        x1 = 0.5 * (x2 + x4)
        y1 = c_half + m * x1
    return validate_state((x1, 1.0 - x1), (y1, 1.0 - y1))


def construct_gap_example(a: float) -> AthermalityState:
    """A qubit resource whose feasible-gap set at ratio a is not an interval.

    The cooling case a > 1 is obtained from the heating construction at
    ratio 1/a via the region-preserving reflection (x, y) -> (1-y, 1-x),
    which maps the ratio-1/a elbow curve onto the ratio-a curve.
    """
    if abs(a - 1.0) < _NEAR_ONE:
        raise TrivialRatio(f"a = {a!r} lies within {_NEAR_ONE} of 1: too near for a witness")
    if not (math.isfinite(a) and a > 0.0):
        raise TrivialRatio(f"construction requires a > 0, a != 1, got {a!r}")
    try:
        state = _construct_heating_example(min(a, 1.0 / a))
    except ArithmeticError as exc:  # the curve under- or overflows at extreme a
        raise BisectionError(f"construction fails at a = {a!r}: {exc}") from exc
    if a < 1.0:
        return state
    x1, y1 = state.r.entries[0], state.g.entries[0]
    return validate_state((1.0 - y1, y1), (1.0 - x1, x1))

