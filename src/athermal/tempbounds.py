"""Extremal temperatures reachable with a given resource, and the maximal
ground-state overlap.

Cooling: the largest inverse temperature beta~ such that the target Gibbs
pair (g~(beta~), g) is still dominated by the resource boundary. Condition
k in [n-1] caps the mass of the k lowest levels at alpha_k. It is solved on
the log-odds

    L_k(beta~) = ln sum_{i<k} exp(-beta~ h_i) - ln sum_{i>=k} exp(-beta~ h_i),

which rises with slope <h>_{i>=k} - <h>_{i<k} > 0, by Newton steps toward
logit(alpha_k) inside a bracket found by doubling the offset from beta; a
step that leaves the bracket is replaced by a bisection step. Each sum is
shifted by its own largest exponent, so neither underflows.

A condition is settled without a search when alpha_k reaches the limit of
the k-level mass as beta~ -> +inf (tagged +inf), or when that mass already
reaches alpha_k at beta (beta itself). Only the search for the other roots
forks, on the target's level count:
- below `_VECTOR_MIN_LEVELS`, one condition at a time in pure Python
  (`_cooling_root`), each step O(d) for d levels;
- from there up, every open condition at once in numpy (`_cooling_roots`):
  the doubling shares its probe points across conditions, and each Newton
  step evaluates L_k and its slope for all open rows in one masked (K x d)
  array. A call costs O(d^2 * steps) either way; in numpy that work is a
  few array operations a step instead of d^2 interpreted ones, which wins
  once d passes about 16 (see the constant for the measured ladder).
Both take the same steps and stop by the same rules, so their roots agree
to rounding in the sums (tests/test_tempbounds_paths.py).

Heating is cooling mirrored: exp(-beta~ h) = exp(-(-beta~)(-h)), so it
solves the energies -h (reversed) at -beta and negates the result, which
may be negative (population inversion).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

from .core import AthermalityState, ExtendedBeta, GibbsContext, _check_beta, _check_gap
from .errors import (
    BisectionError,
    DegenerateTarget,
    GapTooSmall,
    NonFiniteBeta,
    WrongDegeneracy,
)
from .majorization import alpha_at, compute_elbows
from .thermo import shifted_weights

# An unreachable condition (alpha at or above the analytic beta~ -> +-inf
# limit) is tagged infinite rather than chased by the root search.
LIMIT_SLACK = 1e-12

_REL_WIDTH = 1e-13
_MAX_ITERS = 200
_MAX_DOUBLINGS = 120

# Targets with at least this many levels solve their open conditions
# together in numpy (`_cooling_roots`), smaller ones one at a time
# (`_cooling_root`). Time of one beta_max or beta_min call in ms against a
# 64-level resource, pure Python / numpy, medians of interleaved runs over
# four targets per size; 2-CPU x86-64 host, numpy 2.4, BLAS at one thread:
#   d         2     8    16    20    24    32    48    64   128   400
#   Python  0.05  0.22  0.80  1.09  1.52  2.32  4.28  6.58  23.1   185
#   numpy   0.19  0.38  0.75  0.82  1.01  0.95  1.41  1.07   2.7    28
# numpy breaks even near 16 levels; from 24 it wins by half. This is not
# `core._NUMPY_MIN_DIM`, which counts the levels of a state and breaks even
# near 100: here numpy replaces O(d^2) interpreted steps per Newton step.
_VECTOR_MIN_LEVELS = 24


def _bottom_masses(energies: Sequence[float], beta: float, ks) -> list[float]:
    """Mass of the k lowest-energy levels of the Gibbs vector at beta, per k."""
    _, w = shifted_weights(energies, beta)
    total = math.fsum(w)
    return [math.fsum(w[:k]) / total for k in ks]


@dataclass(frozen=True)
class CoolingReport:
    beta_max: ExtendedBeta
    per_condition: tuple[tuple[int, ExtendedBeta, float], ...]


@dataclass(frozen=True)
class HeatingReport:
    beta_min: ExtendedBeta
    per_condition: tuple[tuple[int, ExtendedBeta, float], ...]


def _log_odds(head, tail, bt: float) -> tuple[float, float]:
    """L_k at bt and its slope dL_k/dbt > 0, for head = h[:k], tail = h[k:]."""
    shift_h, wh = shifted_weights(head, bt)
    shift_t, wt = shifted_weights(tail, bt)
    zh, zt = sum(wh), sum(wt)
    value = shift_h - shift_t + math.log(zh / zt)
    mean_h = sum(map(operator.mul, wh, head)) / zh
    mean_t = sum(map(operator.mul, wt, tail)) / zt
    return value, mean_t - mean_h


def _cooling_root(
    energies: Sequence[float], beta: float, k: int, goal: float
) -> float:
    """The beta~ > beta at which L_k reaches goal = logit(alpha_k)."""
    head, tail = energies[:k], energies[k:]
    lo, offset = beta, 1.0
    for _ in range(_MAX_DOUBLINGS):
        x = beta + offset
        value, slope = _log_odds(head, tail, x)
        if value >= goal:
            break
        lo = x
        offset *= 2.0
    else:
        raise BisectionError(f"no bracket for condition k={k}")

    # Safeguarded Newton: L(lo) < goal <= L(hi) holds throughout.
    hi = x
    for _ in range(_MAX_ITERS):
        mid = 0.5 * (lo + hi)
        width = _REL_WIDTH * max(1.0, abs(mid))
        if hi - lo < width:
            return mid
        step = (value - goal) / slope if slope > 0.0 else math.inf
        if abs(step) < width:
            return x - step
        x = x - step if lo < x - step < hi else mid
        value, slope = _log_odds(head, tail, x)
        if value >= goal:
            hi = x
        else:
            lo = x
    return x


def _log_odds_rows(h, k, x):
    """L_k and its slope at x, one row per condition: _log_odds on arrays
    of k and x, with the head and the tail of each row under their own shift."""
    import numpy as np

    head = np.arange(len(h)) < k[:, None]
    neg = -x
    up = x >= 0.0
    shift_h = neg * np.where(up, h[0], h[k - 1])
    shift_t = neg * np.where(up, h[k], h[-1])
    w = np.exp(neg[:, None] * h - np.where(head, shift_h[:, None], shift_t[:, None]))
    w_head, w_tail = np.where(head, w, 0.0), np.where(head, 0.0, w)
    zh, zt = w_head.sum(axis=1), w_tail.sum(axis=1)
    return shift_h - shift_t + np.log(zh / zt), w_tail @ h / zt - w_head @ h / zh


def _cooling_roots(
    energies: Sequence[float], beta: float, ks: Sequence[int], goals: Sequence[float]
) -> list[float]:
    """_cooling_root for every k at once: the same doubling and safeguarded
    Newton steps, each row on its own bracket, one array operation a step."""
    import numpy as np

    h, k, goal = np.array(energies), np.array(ks), np.array(goals)
    lo, hi = np.full(len(k), beta), np.empty(len(k))
    value, slope = np.empty(len(k)), np.empty(len(k))
    # x * h may overflow far out in the doubling; the NaN it leaves fails
    # every comparison, as on the scalar path, which warns of nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        # One probe point per doubling, shared by the rows still unbracketed.
        rows, offset = np.arange(len(k)), 1.0
        for _ in range(_MAX_DOUBLINGS):
            x = beta + offset
            v, s = _log_odds_rows(h, k[rows], np.full(len(rows), x))
            hit = v >= goal[rows]
            hi[rows[hit]], value[rows[hit]], slope[rows[hit]] = x, v[hit], s[hit]
            rows = rows[~hit]
            lo[rows] = x
            if not len(rows):
                break
            offset *= 2.0
        else:
            raise BisectionError(f"no bracket for condition k={ks[rows[0]]}")

        # Safeguarded Newton: L(lo) < goal <= L(hi) holds on every row, and
        # the arrays keep only the rows still open.
        root, rows, x = np.empty(len(k)), np.arange(len(k)), hi
        for _ in range(_MAX_ITERS):
            mid = 0.5 * (lo + hi)
            width = _REL_WIDTH * np.maximum(1.0, np.abs(mid))
            step = np.divide(
                value - goal, slope, out=np.full(len(x), np.inf), where=slope > 0.0
            )
            narrow = hi - lo < width
            root[rows] = np.where(narrow, mid, x - step)  # open rows: overwritten
            live = ~(narrow | (np.abs(step) < width))
            rows, k, goal, lo, hi, mid, x, step = (
                a[live] for a in (rows, k, goal, lo, hi, mid, x, step)
            )
            if not len(rows):
                break
            x = np.where((lo < x - step) & (x - step < hi), x - step, mid)
            value, slope = _log_odds_rows(h, k, x)
            rise = value >= goal
            lo, hi = np.where(rise, lo, x), np.where(rise, x, hi)
        else:
            root[rows] = x
    return root.tolist()


def _conditions(
    resource: AthermalityState, target: GibbsContext, heating: bool
) -> tuple[tuple[int, ExtendedBeta, float], ...]:
    """(k, beta~_k, alpha_k) of every condition; heating solves the mirror.

    As beta~ -> +inf the k-level mass tends to k/d below the ground
    degeneracy d, else to 1."""
    if target.is_degenerate:
        raise DegenerateTarget("target energies are completely degenerate")
    h, beta, d = target.energies, target.beta, target.ground_degeneracy()
    if heating:
        h, beta, d = tuple(-x for x in reversed(h)), -beta, target.top_degeneracy()
    boundary = compute_elbows(resource)
    per, open_ks, goals = [], [], []
    for k, y_k in enumerate(_bottom_masses(h, beta, range(1, len(h))), 1):
        alpha_k = alpha_at(boundary, y_k)
        if alpha_k >= (k / d if k < d else 1.0) - LIMIT_SLACK:
            b = ExtendedBeta.pos_inf()
        elif y_k >= alpha_k:
            b = ExtendedBeta.finite(beta)
        else:
            b = None
            open_ks.append(k)
            goals.append(math.log(alpha_k) - math.log1p(-alpha_k))
        per.append([k, b, alpha_k])
    if open_ks and len(h) >= _VECTOR_MIN_LEVELS:
        roots = _cooling_roots(h, beta, open_ks, goals)
    else:
        roots = [_cooling_root(h, beta, k, g) for k, g in zip(open_ks, goals)]
    for k, root in zip(open_ks, roots):
        per[k - 1][1] = ExtendedBeta.finite(root)
    return tuple((k, -b if heating else b, alpha_k) for k, b, alpha_k in per)


def beta_max(resource: AthermalityState, target: GibbsContext) -> CoolingReport:
    """Maximal inverse temperature to which the target can be cooled."""
    per = _conditions(resource, target, heating=False)
    return CoolingReport(min(b for _, b, _ in per), per)


def beta_min(resource: AthermalityState, target: GibbsContext) -> HeatingReport:
    """Minimal (possibly negative) inverse temperature reachable by heating."""
    per = _conditions(resource, target, heating=True)
    return HeatingReport(max(b for _, b, _ in per), per)


def qubit_beta_bounds(
    resource: AthermalityState, E: float, beta: float
) -> tuple[ExtendedBeta, ExtendedBeta]:
    """Closed-form (beta~_max, beta~_min) for a qubit target with gap E."""
    _check_gap(E)
    _check_beta(beta)
    boundary = compute_elbows(resource)
    if boundary.is_diagonal:
        return ExtendedBeta.finite(beta), ExtendedBeta.finite(beta)
    w = math.exp(-beta * E)
    g1 = 1.0 / (1.0 + w)
    g2 = w / (1.0 + w)

    alpha = alpha_at(boundary, g1)
    if alpha >= 1.0 - LIMIT_SLACK:
        bmax = ExtendedBeta.pos_inf()
    else:
        bmax = _finite_beta(math.log(alpha / (1.0 - alpha)) / E, E)

    x1, y1 = boundary.xs[1], boundary.ys[1]
    if g2 < y1:  # first segment: alpha_t = (x1/y1) g2
        log_slope = math.log(x1 / y1)
        alpha_t = math.exp(log_slope - beta * E - math.log1p(w))
    else:
        alpha_t = alpha_at(boundary, g2)
    if alpha_t >= 1.0 - LIMIT_SLACK:
        bmin = ExtendedBeta.neg_inf()
    elif g2 < y1:
        # ln((1 - alpha_t)/alpha_t) = beta*E + excess, kept apart: g2
        # underflows to 0 once beta*E exceeds ~745, and beta*E may overflow
        excess = math.log1p(-alpha_t) - log_slope + math.log1p(w)
        bmin = _finite_beta(beta + excess / E, E)
    else:
        bmin = _finite_beta(math.log((1.0 - alpha_t) / alpha_t) / E, E)
    return bmax, bmin


def _finite_beta(value: float, E: float) -> ExtendedBeta:
    # a log-odds of order 1 over a gap near the subnormal range overflows
    if not math.isfinite(value):
        raise GapTooSmall(f"energy gap {E!r} too small: beta~ overflows a float")
    return ExtendedBeta.finite(value)


def max_ground_overlap(
    resource: AthermalityState, target: GibbsContext, ground_degeneracy: int = 1
) -> float:
    """Largest reachable overlap with the target's (degenerate) ground space."""
    if ground_degeneracy != target.ground_degeneracy():
        raise WrongDegeneracy(
            f"ground degeneracy {ground_degeneracy} inconsistent with energies "
            f"(multiplicity {target.ground_degeneracy()})"
        )
    boundary = compute_elbows(resource)
    (y,) = _bottom_masses(target.energies, target.beta, (ground_degeneracy,))
    return alpha_at(boundary, y)


def _excited_occupancy(beta: float, E: float) -> float:
    x = beta * E
    if x > 700.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(x))


def qubit_energy_change(E: float, beta: float, beta_tilde: float) -> float:
    """Mean-energy change of a gap-E qubit driven from beta to beta_tilde.

    beta_tilde may be negative or infinite: the limits of population
    inversion (-inf) and of cooling (+inf)."""
    _check_gap(E)
    _check_beta(beta)
    if math.isnan(beta_tilde):
        raise NonFiniteBeta(f"beta_tilde must not be NaN, got {beta_tilde!r}")
    return (_excited_occupancy(beta_tilde, E) - _excited_occupancy(beta, E)) * E
