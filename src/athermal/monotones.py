"""Qubit cooling/heating monotone families and the convertibility decision
via the finite critical-energy reduction.

For a quasi-classical target, checking the cooling monotone at the critical
gaps of its elbows above occupancy 1/2 and the heating monotone at those
below 1/2 decides convertibility. An elbow at ordinate 1/2, the E -> 0 limit
of both families, is checked itself; a failed one is named by a gap beside it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .core import AthermalityState, _check_beta, _check_gap
from .majorization import (
    TestingBoundary,
    _first_shortfall,
    alpha_at,
    compute_elbows,
    relatively_majorizes,
)
from .tempbounds import _qubit_root

# Elbow ordinates this close to 1/2 have no finite critical gap; a failed one
# is named by a gap beside it, at most DEGENERATE_PERTURBATION off in ordinate.
DEGENERATE_ORDINATE_TOL = 1e-12
DEGENERATE_PERTURBATION = 1e-9


@dataclass(frozen=True)
class CriticalEnergySet:
    """Finite gap set sufficient to decide convertibility to one target."""

    entries: tuple[tuple[int, float, str], ...]  # (k, E_k, "cooling"|"heating")
    degenerate_flags: tuple[int, ...]  # elbow indices with ordinate 1/2


def cooling_monotone(state: AthermalityState, beta: float, E: float) -> float:
    """How far below the background temperature a gap-E qubit can be driven."""
    _check_gap(E)
    _check_beta(beta)
    return _qubit_root(compute_elbows(state), beta, E)[0] - beta


def heating_monotone(state: AthermalityState, beta: float, E: float) -> float:
    """How far above the background temperature a gap-E qubit can be driven."""
    _check_gap(E)
    _check_beta(beta)
    return beta + _qubit_root(compute_elbows(state), -beta, E)[0]


def critical_energies(target: AthermalityState, beta: float) -> CriticalEnergySet:
    """Per-elbow critical gaps of a quasi-classical target state."""
    _check_beta(beta)
    checks = _checks(compute_elbows(target))
    return CriticalEnergySet(
        tuple(
            (k, *_gap_of_ordinate(beta, y))
            for ks, _, ys in checks[:2]
            for k, y in zip(ks, ys)
        ),
        tuple(checks[2][0]),
    )


def _checks(boundary: TestingBoundary):
    """The decision's checks, in order, as groups (ks, xs, ys) of the target
    boundary's interior elbows (xs[i], ys[i]) of index ks[i]: those below
    ordinate 1/2, those above it, then those at 1/2, which have no finite
    critical gap. Groups are slices in the boundary's form: tuples, or numpy
    arrays. A check is named by the gap of its ordinate (`_gap_of_ordinate`),
    one at 1/2 by that of an ordinate beside it (`_ordinate_beside`)."""
    xs, ys = boundary.xs, boundary.ys
    # ys is non-decreasing: the elbows at 1/2 (|y - 1/2| <= the tolerance)
    # are the run [lo, hi), those below and above it lie on either side.
    lo = bisect_left(ys, -DEGENERATE_ORDINATE_TOL, key=lambda y: y - 0.5)
    hi = bisect_right(ys, DEGENERATE_ORDINATE_TOL, lo, key=lambda y: y - 0.5)
    return [
        (range(1, lo), xs[1:lo], ys[1:lo]),
        (range(hi, len(ys) - 1), xs[hi:-1], ys[hi:-1]),
        (range(lo, hi), xs[lo:hi], ys[lo:hi]),
    ]


def _ordinate_beside(src: TestingBoundary, tgt: TestingBoundary, y: float) -> float:
    """An ordinate y -+ t where `src` misses `tgt`, which it misses at the
    elbow y ~ 1/2: t halves from DEGENERATE_PERTURBATION, y - t tried first.
    Both boundaries are linear near the elbow, so the halving ends."""
    t = DEGENERATE_PERTURBATION
    while True:
        ys = (y - t, y + t)
        i = _first_shortfall(src, tuple(alpha_at(tgt, b) for b in ys), ys)
        if i is not None:
            return ys[i]
        t /= 2.0


def _gap_of_ordinate(beta: float, y: float) -> tuple[float, str]:
    """(E, kind): the qubit gap whose check maps to ordinate y != 1/2."""
    y = float(y)  # not a numpy scalar: those are slow in scalar arithmetic
    if y > 0.5:
        return math.log(y / (1.0 - y)) / beta, "cooling"
    odds = (1.0 - y) / y
    if odds == math.inf:  # a subnormal y: the odds overflow, their log does not
        return (math.log1p(-y) - math.log(y)) / beta, "heating"
    return math.log(odds) / beta, "heating"


def _failed_check(
    source: AthermalityState, target: AthermalityState, beta: float
) -> tuple[int, float, str] | None:
    """(k, E_k, kind) of the first check that `convertible_via_monotones`
    fails, or None when it passes them all."""
    _check_beta(beta)
    src = compute_elbows(source)
    tgt = compute_elbows(target)
    for group, (ks, xs, ys) in enumerate(_checks(tgt)):
        i = _first_shortfall(src, xs, ys)
        if i is not None:
            y = ys[i] if group < 2 else _ordinate_beside(src, tgt, float(ys[i]))
            return (ks[i], *_gap_of_ordinate(beta, y))
    return None


def convertible_via_monotones(
    source: AthermalityState, target: AthermalityState, beta: float
) -> bool:
    """Convertibility decision from the finite critical-energy checks.

    The monotone inequality at the critical gap E_k of elbow k reduces to
    comparing the extremal reachable occupancies, i.e. the two boundaries at
    the ordinate that E_k maps to, which is the elbow's own y_k; so each
    check compares the source boundary with the target's elbow (x_k, y_k). An
    elbow at ordinate 1/2, the E -> 0 limit of both families, is compared
    itself: the checks are those of `relatively_majorizes`.
    """
    _check_beta(beta)
    return relatively_majorizes(source, target)
