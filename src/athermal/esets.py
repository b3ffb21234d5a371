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
    alpha_at,
    alphas_at,
    compute_elbows,
)

DEFAULT_N_GRID = 10_000
# Largest scan grid (eset, gap_set, curve): about 8 MB per float array.
MAX_GRID = 1_000_000
# Default scan depth: beyond w = 1e-10 the qubit Gibbs vector is numerically
# pure and membership no longer changes.
DEFAULT_W_MIN = 1e-10
ENDPOINT_RESOLUTION = 1e-10  # bisection target on |delta E| for interval ends

_TANGENT_EPS = 1e-9
# Points per block of the vector clearance (64 KiB float arrays). Whole-grid
# temporaries above glibc's 128 KiB mmap threshold can be handed back to the
# OS and faulted in again on every scan, depending on the heap's layout.
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


def _member(boundary: TestingBoundary, a: float, w: float) -> bool:
    """True iff the curve point at w lies in the resource's testing region,
    by the domination rule of every decision (`_dominates`)."""
    x, y = fa_point(a, w)
    return _dominates(alpha_at(boundary, y), x)


def _clearance(
    boundary: TestingBoundary, a: float, ws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(clearance, member) at every point of the array ws: the signed
    clearance alpha - x of the curve point inside the resource boundary, and
    `_member` there."""
    clearance = np.empty_like(ws)
    member = np.empty(len(ws), dtype=bool)
    for k in range(0, len(ws), _SCAN_BLOCK):
        xs, ys = _curve_xy(a, ws[k : k + _SCAN_BLOCK])
        alphas = alphas_at(boundary, ys)
        clearance[k : k + _SCAN_BLOCK] = alphas - xs
        member[k : k + _SCAN_BLOCK] = _dominates(alphas, xs)
    return clearance, member


def _scan_grid(
    beta: float, e_max: float | None, n_grid: int
) -> tuple[float, float, np.ndarray]:
    """(e_max, step, ws): n_grid points ws ascending from exp(-beta*e_max)
    in steps of (1 - ws[0])/n_grid, so E = -ln(w)/beta descends to one
    step short of 0. The default e_max puts ws[0] at DEFAULT_W_MIN."""
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
    step = (1.0 - w_min) / n_grid
    return e_max, step, w_min + step * np.arange(n_grid)


def _bisect(inside, lo: float, hi: float, fine) -> float:
    """Halve [lo, hi] around the change of the boolean inside(x) until
    fine(lo, hi) holds or no float lies strictly between; return the middle."""
    at_lo = inside(lo)
    while not fine(lo, hi):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if inside(mid) == at_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gap_membership(
    resource: AthermalityState, beta: float, beta_tilde: float, E: float
) -> bool:
    """True iff a gap-E qubit can be driven from beta to beta_tilde."""
    _check_gap(E)
    _check_beta(beta)
    if beta_tilde == beta:
        return True
    boundary = compute_elbows(resource)
    return _member(boundary, beta_tilde / beta, math.exp(-beta * E))


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


def gap_set(
    resource: AthermalityState,
    beta: float,
    beta_tilde: float,
    e_max: float | None = None,
    n_grid: int = DEFAULT_N_GRID,
) -> EnergyGapSet:
    """Scan the feasible-gap set over E in (0, e_max].

    The clearance is evaluated on n_grid points uniform in w = exp(-beta*E)
    from exp(-beta*e_max) up (e_max defaults to -ln(DEFAULT_W_MIN)/beta);
    each run of feasible points is one interval. An end between two points
    is bisected in w down to ENDPOINT_RESOLUTION in E and is closed iff
    feasible there. Every step uses the membership rule of `gap_membership`.
    """
    e_max, step, ws = _scan_grid(beta, e_max, n_grid)
    if beta_tilde == beta:
        return EnergyGapSet(
            (GapInterval(0.0, e_max, lo_closed=False, hi_closed=True),), step
        )

    a = beta_tilde / beta
    boundary = compute_elbows(resource)

    def inside(w: float) -> bool:
        return _member(boundary, a, w)

    def crossing(k: int) -> tuple[float, bool]:
        """(E, closed) of the membership change between ws[k-1] and ws[k]."""
        w = _bisect(
            inside, float(ws[k - 1]), float(ws[k]),
            lambda lo, hi: math.log(hi / lo) / beta < ENDPOINT_RESOLUTION,
        )
        return -math.log(w) / beta, inside(w)

    # runs [i, j) of feasible points; w increasing means E decreasing
    _, member = _clearance(boundary, a, ws)
    edges = np.flatnonzero(np.diff(member, prepend=False, append=False)).tolist()
    intervals: list[GapInterval] = []
    for i, j in zip(edges[::2], edges[1::2]):
        hi, hi_closed = (e_max, inside(float(ws[0]))) if i == 0 else crossing(i)
        lo, lo_closed = (0.0, False) if j == len(ws) else crossing(j)  # E > 0
        if hi > lo:
            intervals.append(GapInterval(lo, hi, lo_closed, hi_closed))
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


def _construct_heating_example(a: float) -> AthermalityState:
    """Tangent-line construction for 0 < a < 1 (heating branch)."""
    eps = _TANGENT_EPS

    def root(f, lo: float, hi: float) -> float:
        """Sign change of f on [lo, hi], to the last float."""
        if (f(lo) > 0.0) == (f(hi) > 0.0):
            raise BisectionError("no sign change on the given bracket")
        return _bisect(lambda x: f(x) > 0.0, lo, hi, lambda lo, hi: False)

    # affine function through (1,1) tangent to the curve
    def tangency(x: float) -> float:
        return _curve_slope(x, a) - (1.0 - _curve_height(x, a)) / (1.0 - x)

    x0 = root(tangency, eps, 0.5 - eps)
    slope = _curve_slope(x0, a)
    c_half = (1.0 - slope) / 2.0  # half the tangent's ordinate at x = 0

    def lowered(x: float) -> float:
        return c_half + (1.0 - c_half) * x

    x4 = -c_half / (1.0 - c_half)  # x-intercept of the lowered line
    x2 = root(lambda x: _curve_height(x, a) - lowered(x), x4, x0)
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
    try:
        state = _construct_heating_example(min(a, 1.0 / a))
    except ArithmeticError as exc:  # the curve under- or overflows at extreme a
        raise BisectionError(f"construction fails at a = {a!r}: {exc}") from exc
    if a < 1.0:
        return state
    x1, y1 = state.r.entries[0], state.g.entries[0]
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
    _check_beta(beta)
    src = compute_elbows(source)
    tgt = compute_elbows(target)
    ws = np.exp(-beta * np.asarray(e_grid, dtype=float))
    for bt in beta_tilde_grid:
        if bt == beta:
            continue
        _, in_target = _clearance(tgt, bt / beta, ws)
        _, in_source = _clearance(src, bt / beta, ws)
        if np.any(in_target & ~in_source):
            return False
    return True
