"""Qubit cooling/heating monotone families and the convertibility decision
via the finite critical-energy reduction.

For a quasi-classical target, checking the cooling monotone at the critical
gaps of its elbows above occupancy 1/2 and the heating monotone at those
below 1/2 decides convertibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import AthermalityState
from .errors import NonPositiveBeta, NonPositiveGap
from .majorization import (
    DOMINATION_SLACK,
    TestingBoundary,
    alpha_at,
    compute_elbows,
)
from .tempbounds import qubit_beta_bounds

# Elbow ordinates this close to 1/2 have no finite critical gap; the
# convertibility check perturbs them instead.
DEGENERATE_ORDINATE_TOL = 1e-12
DEGENERATE_PERTURBATION = 1e-9


@dataclass(frozen=True)
class CriticalEnergySet:
    """Finite gap set sufficient to decide convertibility to one target."""

    entries: tuple[tuple[int, float, str], ...]  # (k, E_k, "cooling"|"heating")
    degenerate_flags: tuple[int, ...]  # elbow indices with ordinate 1/2


def _check_beta(beta: float) -> None:
    if not (math.isfinite(beta) and beta > 0.0):
        raise NonPositiveBeta(f"beta must be finite and > 0, got {beta!r}")


def _check_gap_args(beta: float, E: float) -> None:
    if not (math.isfinite(E) and E > 0.0):
        raise NonPositiveGap(f"energy gap must be > 0, got {E!r}")
    _check_beta(beta)


def cooling_monotone(state: AthermalityState, beta: float, E: float) -> float:
    """How far below the background temperature a gap-E qubit can be driven."""
    _check_gap_args(beta, E)
    bmax, _ = qubit_beta_bounds(state, E, beta)
    if not bmax.is_finite:
        return math.inf
    return bmax.value - beta


def heating_monotone(state: AthermalityState, beta: float, E: float) -> float:
    """How far above the background temperature a gap-E qubit can be driven."""
    _check_gap_args(beta, E)
    _, bmin = qubit_beta_bounds(state, E, beta)
    if not bmin.is_finite:
        return math.inf
    return beta - bmin.value


def critical_energies(target: AthermalityState, beta: float) -> CriticalEnergySet:
    """Per-elbow critical gaps of a quasi-classical target state."""
    _check_beta(beta)
    return _critical_set(compute_elbows(target), beta)


def _critical_set(boundary: TestingBoundary, beta: float) -> CriticalEnergySet:
    entries = []
    degenerate = []
    for k, (_, y) in enumerate(boundary.interior(), start=1):
        if abs(y - 0.5) <= DEGENERATE_ORDINATE_TOL:
            degenerate.append(k)
        elif y > 0.5:
            entries.append((k, math.log(y / (1.0 - y)) / beta, "cooling"))
        else:
            entries.append((k, math.log((1.0 - y) / y) / beta, "heating"))
    return CriticalEnergySet(tuple(entries), tuple(degenerate))


def _ordinate_of_gap(beta: float, E: float, kind: str) -> float:
    w = math.exp(-beta * E)
    return 1.0 / (1.0 + w) if kind == "cooling" else w / (1.0 + w)


def convertible_via_monotones(
    source: AthermalityState, target: AthermalityState, beta: float
) -> bool:
    """Convertibility decision from the finite critical-energy checks.

    The monotone inequality at gap E_k reduces to comparing the extremal
    reachable occupancies, i.e. the two boundaries at the ordinate that E_k
    maps back to; the comparison is done there to share the geometric slack.
    Elbows at ordinate 1/2 (no finite gap) are perturbed both ways and both
    perturbed checks must pass.
    """
    _check_beta(beta)
    src = compute_elbows(source)
    tgt = compute_elbows(target)
    crit = _critical_set(tgt, beta)

    def dominated_at(y: float) -> bool:
        return alpha_at(src, y) >= alpha_at(tgt, y) - DOMINATION_SLACK

    for k, E_k, kind in crit.entries:
        if not dominated_at(_ordinate_of_gap(beta, E_k, kind)):
            return False
    interior = tgt.interior()
    for k in crit.degenerate_flags:
        y = interior[k - 1][1]
        for y_pert in (y - DEGENERATE_PERTURBATION, y + DEGENERATE_PERTURBATION):
            if not dominated_at(y_pert):
                return False
    return True
