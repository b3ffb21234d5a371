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


def _cooling_condition(
    energies: Sequence[float],
    beta: float,
    k: int,
    y_k: float,
    alpha_k: float,
    limit: float,
) -> ExtendedBeta:
    """Largest beta~ whose bottom-k mass stays at or below alpha_k, where
    y_k is that mass at beta."""
    if alpha_k >= limit - LIMIT_SLACK:
        return ExtendedBeta.pos_inf()
    if y_k >= alpha_k:
        return ExtendedBeta.finite(beta)
    head, tail = energies[:k], energies[k:]
    goal = math.log(alpha_k) - math.log1p(-alpha_k)

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
            return ExtendedBeta.finite(mid)
        step = (value - goal) / slope if slope > 0.0 else math.inf
        if abs(step) < width:
            return ExtendedBeta.finite(x - step)
        x = x - step if lo < x - step < hi else mid
        value, slope = _log_odds(head, tail, x)
        if value >= goal:
            hi = x
        else:
            lo = x
    return ExtendedBeta.finite(x)


def _conditions(
    resource: AthermalityState, target: GibbsContext, heating: bool
) -> tuple[tuple[int, ExtendedBeta, float], ...]:
    """(k, beta~_k, alpha_k) of every condition; heating solves the mirror."""
    if target.is_degenerate:
        raise DegenerateTarget("target energies are completely degenerate")
    h, beta, d = target.energies, target.beta, target.ground_degeneracy()
    if heating:
        h, beta, d = tuple(-x for x in reversed(h)), -beta, target.top_degeneracy()
    boundary = compute_elbows(resource)
    per = []
    for k, y_k in enumerate(_bottom_masses(h, beta, range(1, len(h))), 1):
        alpha_k = alpha_at(boundary, y_k)
        b = _cooling_condition(h, beta, k, y_k, alpha_k, k / d if k < d else 1.0)
        per.append((k, -b if heating else b, alpha_k))
    return tuple(per)


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
    """Mean-energy change of a gap-E qubit driven from beta to beta_tilde."""
    return (_excited_occupancy(beta_tilde, E) - _excited_occupancy(beta, E)) * E
