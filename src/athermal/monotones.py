"""Qubit cooling/heating monotone families and the convertibility decision
via the finite critical-energy reduction.

For a quasi-classical target, checking the cooling monotone at the critical
gaps of its elbows above occupancy 1/2 and the heating monotone at those
below 1/2 decides convertibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import _NUMPY_MIN_DIM, AthermalityState, _check_beta
from .majorization import (
    DOMINATION_SLACK,
    TestingBoundary,
    alpha_at,
    alphas_at,
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


def cooling_monotone(state: AthermalityState, beta: float, E: float) -> float:
    """How far below the background temperature a gap-E qubit can be driven."""
    bmax, _ = qubit_beta_bounds(state, E, beta)
    if not bmax.is_finite:
        return math.inf
    return bmax.value - beta


def heating_monotone(state: AthermalityState, beta: float, E: float) -> float:
    """How far above the background temperature a gap-E qubit can be driven."""
    _, bmin = qubit_beta_bounds(state, E, beta)
    if not bmin.is_finite:
        return math.inf
    return beta - bmin.value


def critical_energies(target: AthermalityState, beta: float) -> CriticalEnergySet:
    """Per-elbow critical gaps of a quasi-classical target state."""
    _check_beta(beta)
    critical, perturbed = _checks(compute_elbows(target), beta)
    return CriticalEnergySet(
        tuple(check[:3] for check in critical),
        tuple(check[0] for check in perturbed[::2]),
    )


def _checks(boundary: TestingBoundary, beta: float):
    """The decision's checks, as two lists of (k, E_k, kind, y), where y is
    the ordinate compared at: the critical gap of each elbow k off ordinate
    1/2, mapped back, and the two perturbed ordinates of each elbow at 1/2,
    named by their own gaps (about 4e-9/beta)."""
    critical, perturbed = [], []
    for k, (_, y) in enumerate(boundary.interior(), start=1):
        if abs(y - 0.5) <= DEGENERATE_ORDINATE_TOL:
            for y_pert in (y - DEGENERATE_PERTURBATION, y + DEGENERATE_PERTURBATION):
                perturbed.append((k, *_gap_of_ordinate(beta, y_pert), y_pert))
        else:
            E, kind = _gap_of_ordinate(beta, y)
            critical.append((k, E, kind, _ordinate_of_gap(beta, E, kind)))
    return critical, perturbed


def _gap_of_ordinate(beta: float, y: float) -> tuple[float, str]:
    """(E, kind): the qubit gap whose check maps to ordinate y != 1/2."""
    if y > 0.5:
        return math.log(y / (1.0 - y)) / beta, "cooling"
    return math.log((1.0 - y) / y) / beta, "heating"


def _ordinate_of_gap(beta: float, E: float, kind: str) -> float:
    w = math.exp(-beta * E)
    return 1.0 / (1.0 + w) if kind == "cooling" else w / (1.0 + w)


def _check_ordinates(boundary: TestingBoundary, beta: float):
    """The ordinates of `_checks`, in its order, as one array, and the mask
    of elbows at ordinate 1/2. Vector form of `_checks`; numpy's log and exp
    may differ from libm's in the last bit, so a mapped ordinate may differ
    from the scalar one by an ulp, which moves a verdict only when a
    clearance lies within about 1e-16 of the slack."""
    import numpy as np

    y = boundary.arrays[1][1:-1]
    degenerate = np.abs(y - 0.5) <= DEGENERATE_ORDINATE_TOL
    yc = y[~degenerate]
    cooling = yc > 0.5
    # A subnormal ordinate's gap overflows to inf, as in floats; its ordinate is 0.
    with np.errstate(over="ignore"):
        E = np.log(np.where(cooling, yc / (1.0 - yc), (1.0 - yc) / yc)) / beta
        w = np.exp(-beta * E)
    yd = y[degenerate]
    perturbed = (yd - DEGENERATE_PERTURBATION, yd + DEGENERATE_PERTURBATION)
    ys = np.concatenate((
        np.where(cooling, 1.0 / (1.0 + w), w / (1.0 + w)),
        np.stack(perturbed, axis=1).ravel(),
    ))
    return ys, degenerate


def _failed_check(
    source: AthermalityState, target: AthermalityState, beta: float
) -> tuple[int, float, str] | None:
    """(k, E_k, kind) of the first check that `convertible_via_monotones`
    fails, or None when it passes them all."""
    _check_beta(beta)
    src = compute_elbows(source)
    tgt = compute_elbows(target)
    if target.dim >= _NUMPY_MIN_DIM:
        import numpy as np

        ys, degenerate = _check_ordinates(tgt, beta)
        failed = ~(alphas_at(src, ys) >= alphas_at(tgt, ys) - DOMINATION_SLACK)
        if not failed.any():
            return None
        i = int(failed.argmax())
        elbows = np.concatenate(
            (np.flatnonzero(~degenerate), np.repeat(np.flatnonzero(degenerate), 2))
        )
        k = int(elbows[i]) + 1
        y = float(tgt.arrays[1][k])
        if abs(y - 0.5) <= DEGENERATE_ORDINATE_TOL:
            y = float(ys[i])  # a perturbed check is named by its own gap
        return (k, *_gap_of_ordinate(beta, y))
    critical, perturbed = _checks(tgt, beta)
    for k, E_k, kind, y in critical + perturbed:
        if not alpha_at(src, y) >= alpha_at(tgt, y) - DOMINATION_SLACK:
            return k, E_k, kind
    return None


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
    return _failed_check(source, target, beta) is None
