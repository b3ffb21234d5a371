"""Feasible energy-gap sets for driving a qubit to a fixed target
temperature, the parametric elbow curve these live on, and the explicit
construction of resources whose gap set is not an interval.

With a = beta~/beta and w = exp(-beta*E), the target qubit's non-trivial
elbow traces a curve as E varies; a gap is feasible iff that elbow lies
inside the resource's testing region. The sign pattern of the clearance
along the curve can change more than once, so the set of feasible gaps can
be a union of disjoint intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import AthermalityState, validate_state
from .errors import (
    BisectionError,
    InvalidGrid,
    NonPositiveBeta,
    NonPositiveGap,
    TrivialRatio,
    WOutOfRange,
)
from .majorization import (
    DOMINATION_SLACK,
    TestingBoundary,
    alpha_at,
    compute_elbows,
)

DEFAULT_N_GRID = 10_000
# Default scan depth: beyond w = 1e-10 the qubit Gibbs vector is numerically
# pure and membership no longer changes.
DEFAULT_W_MIN = 1e-10
ENDPOINT_RESOLUTION = 1e-10  # bisection target on |delta E| for interval ends

_TANGENT_EPS = 1e-9


def fa_point(a: float, w: float) -> tuple[float, float]:
    """Elbow (x, y) of the target qubit pair at curve parameter w.

    Cooling branch for a > 1, heating branch for a < 1; a = 1 is rejected
    as trivial (the target equals the background Gibbs state).
    """
    if a == 1.0:
        raise TrivialRatio("a = 1 leaves the qubit at the background temperature")
    if not (0.0 < w <= 1.0):
        raise WOutOfRange(f"w must lie in (0, 1], got {w!r}")
    y = w / (1.0 + w)
    if a > 1.0:
        return 1.0 / (1.0 + w**a), 1.0 / (1.0 + w)
    if a <= 0.0:
        return 1.0 / (1.0 + w ** (-a)), y  # w^a/(1+w^a), overflow-safe form
    wa = w**a
    return wa / (1.0 + wa), y


def _curve_xy(a: float, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if a > 1.0:
        return 1.0 / (1.0 + w**a), 1.0 / (1.0 + w)
    y = w / (1.0 + w)
    if a <= 0.0:
        return 1.0 / (1.0 + w ** (-a)), y
    wa = w**a
    return wa / (1.0 + wa), y


def _feasible(clearance):
    """The one membership rule, for scalars and arrays: a curve point counts
    as inside the resource's testing region down to a clearance of
    -DOMINATION_SLACK, so exact boundary contact is feasible."""
    return clearance >= -DOMINATION_SLACK


def _phi(boundary: TestingBoundary, a: float, w: float) -> float:
    """Signed clearance of the curve point inside the resource boundary."""
    x, y = fa_point(a, w)
    return alpha_at(boundary, y) - x


def gap_membership(
    resource: AthermalityState, beta: float, beta_tilde: float, E: float
) -> bool:
    """True iff a gap-E qubit can be driven from beta to beta_tilde."""
    if not (math.isfinite(E) and E > 0.0):
        raise NonPositiveGap(f"energy gap must be > 0, got {E!r}")
    if not (math.isfinite(beta) and beta > 0.0):
        raise NonPositiveBeta(f"beta must be finite and > 0, got {beta!r}")
    if beta_tilde == beta:
        return True
    boundary = compute_elbows(resource)
    return _feasible(_phi(boundary, beta_tilde / beta, math.exp(-beta * E)))


@dataclass(frozen=True)
class GapInterval:
    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool


@dataclass(frozen=True)
class EnergyGapSet:
    """Disjoint, sorted intervals of feasible energy gaps."""

    intervals: tuple[GapInterval, ...]
    resolution: float  # w-space scan step

    @property
    def is_empty(self) -> bool:
        return not self.intervals


def _refine_crossing(
    boundary: TestingBoundary, a: float, beta: float, w_lo: float, w_hi: float
) -> float:
    """Bisect a change of membership down to |delta E| < resolution."""
    inside_lo = _feasible(_phi(boundary, a, w_lo))
    for _ in range(200):
        if math.log(w_hi / w_lo) / beta < ENDPOINT_RESOLUTION:
            break
        mid = 0.5 * (w_lo + w_hi)
        if _feasible(_phi(boundary, a, mid)) == inside_lo:
            w_lo = mid
        else:
            w_hi = mid
    return 0.5 * (w_lo + w_hi)


def gap_set(
    resource: AthermalityState,
    beta: float,
    beta_tilde: float,
    e_max: float | None = None,
    n_grid: int = DEFAULT_N_GRID,
) -> EnergyGapSet:
    """Scan the feasible-gap set over E in (0, e_max].

    The scan runs on a uniform grid in w = exp(-beta*E) (compact, uniform
    resolution of the curve at both ends); each sign change is refined by
    bisection. Scan, refinement and closedness all use the membership rule
    of `gap_membership`.
    """
    if not (math.isfinite(beta) and beta > 0.0):
        raise NonPositiveBeta(f"beta must be finite and > 0, got {beta!r}")
    if e_max is None:
        e_max = -math.log(DEFAULT_W_MIN) / beta
    if not e_max > 0.0:
        raise NonPositiveGap(f"e_max must be > 0, got {e_max!r}")
    if n_grid < 100:
        raise InvalidGrid(f"n_grid must be >= 100, got {n_grid}")
    w_min = math.exp(-beta * e_max)
    step = (1.0 - w_min) / n_grid
    if beta_tilde == beta:
        return EnergyGapSet(
            (GapInterval(0.0, e_max, lo_closed=False, hi_closed=True),), step
        )

    a = beta_tilde / beta
    boundary = compute_elbows(resource)
    ws = w_min + step * np.arange(n_grid)
    xs, ys = _curve_xy(a, ws)
    member = _feasible(np.interp(ys, boundary.ys, boundary.xs) - xs)

    intervals: list[GapInterval] = []
    i = 0
    while i < n_grid:
        if not member[i]:
            i += 1
            continue
        j = i
        while j + 1 < n_grid and member[j + 1]:
            j += 1
        # run [i, j] of feasible grid points; w increasing means E decreasing
        if i == 0:
            hi, hi_closed = e_max, _feasible(_phi(boundary, a, w_min))
        else:
            w_root = _refine_crossing(boundary, a, beta, float(ws[i - 1]), float(ws[i]))
            hi = -math.log(w_root) / beta
            hi_closed = _feasible(_phi(boundary, a, w_root))
        if j == n_grid - 1:
            lo, lo_closed = 0.0, False  # gaps are strictly positive
        else:
            w_root = _refine_crossing(boundary, a, beta, float(ws[j]), float(ws[j + 1]))
            lo = -math.log(w_root) / beta
            lo_closed = _feasible(_phi(boundary, a, w_root))
        if hi > lo:
            intervals.append(GapInterval(lo, hi, lo_closed, hi_closed))
        i = j + 1
    intervals.reverse()  # ascending in E
    return EnergyGapSet(tuple(intervals), step)


def _curve_height(x: float, a: float) -> float:
    """Curve ordinate as a function of abscissa: x^(1/a)/((1-x)^(1/a)+x^(1/a))."""
    c = 1.0 / a
    num = x**c
    return num / ((1.0 - x) ** c + num)


def _curve_slope(x: float, a: float) -> float:
    c = 1.0 / a
    denom = (1.0 - x) ** c + x**c
    inner = x ** (c - 1.0) - x**c * (
        (x ** (c - 1.0) - (1.0 - x) ** (c - 1.0)) / denom
    )
    return c * inner / denom


def _bisect_root(f, lo: float, hi: float, iters: int = 200) -> float:
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BisectionError("no sign change on the given bracket")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _construct_heating_example(a: float) -> AthermalityState:
    """Tangent-line construction for 0 < a < 1 (heating branch)."""
    eps = _TANGENT_EPS

    # affine function through (1,1) tangent to the curve
    def tangency(x: float) -> float:
        return _curve_slope(x, a) - (1.0 - _curve_height(x, a)) / (1.0 - x)

    x0 = _bisect_root(tangency, eps, 0.5 - eps)
    slope = _curve_slope(x0, a)
    c_half = (1.0 - slope) / 2.0  # half the tangent's ordinate at x = 0

    def lowered(x: float) -> float:
        return c_half + (1.0 - c_half) * x

    def clearance(x: float) -> float:
        return _curve_height(x, a) - lowered(x)

    x4 = -c_half / (1.0 - c_half)  # x-intercept of the lowered line
    x2 = _bisect_root(clearance, x4, x0)
    x1 = 0.5 * (x2 - x4)
    y1 = lowered(x1)
    if y1 <= 0.0:
        x1 = 0.5 * (x2 + x4)
        y1 = lowered(x1)
    return validate_state((x1, 1.0 - x1), (y1, 1.0 - y1))


def construct_gap_example(a: float) -> AthermalityState:
    """A qubit resource whose feasible-gap set at ratio a is not an interval.

    The cooling case a > 1 is obtained from the heating construction at
    ratio 1/a via the region-preserving reflection (x, y) -> (1-y, 1-x),
    which maps the ratio-1/a elbow curve onto the ratio-a curve.
    """
    if a == 1.0:
        raise TrivialRatio("a = 1 is trivial: every gap is feasible")
    if not (math.isfinite(a) and a > 0.0):
        raise TrivialRatio(f"construction requires a > 0, a != 1, got {a!r}")
    if a < 1.0:
        return _construct_heating_example(a)
    mirrored = _construct_heating_example(1.0 / a)
    x1, y1 = mirrored.r.entries[0], mirrored.g.entries[0]
    return validate_state((1.0 - y1, y1), (1.0 - x1, x1))


def eset_superset_check(
    source: AthermalityState,
    target: AthermalityState,
    beta: float,
    beta_tilde_grid: Sequence[float],
    e_grid: Sequence[float],
) -> bool:
    """Sampled check that the source's feasible-gap sets contain the target's."""
    if len(beta_tilde_grid) == 0 or len(e_grid) == 0:
        raise InvalidGrid("grids must be non-empty")
    if not (math.isfinite(beta) and beta > 0.0):
        raise NonPositiveBeta(f"beta must be finite and > 0, got {beta!r}")
    src = compute_elbows(source)
    tgt = compute_elbows(target)
    ws = np.exp(-beta * np.asarray(e_grid, dtype=float))
    for bt in beta_tilde_grid:
        if bt == beta:
            continue
        xs, ys = _curve_xy(bt / beta, ws)
        in_target = _feasible(np.interp(ys, tgt.ys, tgt.xs) - xs)
        in_source = _feasible(np.interp(ys, src.ys, src.xs) - xs)
        if np.any(in_target & ~in_source):
            return False
    return True
