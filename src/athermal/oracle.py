"""Independent LP feasibility oracle for relative majorization.

Decides whether a column-stochastic matrix exists mapping p -> q and
r -> s, by a self-contained dense phase-1 simplex (Bland's rule). Problem
sizes here are tiny, so determinism beats speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ProbabilityVector
from .errors import BisectionError, DimensionMismatch, NonPositiveTolerance

DEFAULT_TOL = 1e-7

_PIVOT_TOL = 1e-11
_MAX_PIVOTS = 20_000


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    max_violation: float


def _phase_one(A: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimize the artificial mass of Ax = b, x >= 0 (b >= 0 assumed).

    Returns (optimum, x at optimum restricted to the original columns).
    """
    n_rows, n_cols = A.shape
    tableau = np.hstack([A, np.eye(n_rows), b.reshape(-1, 1)])
    basis = list(range(n_cols, n_cols + n_rows))
    # phase-1 objective row: reduced costs after pricing out the artificials
    obj = np.concatenate([A.sum(axis=0), np.zeros(n_rows), [b.sum()]])

    for _ in range(_MAX_PIVOTS):
        entering = -1
        for j in range(n_cols + n_rows):
            if obj[j] > _PIVOT_TOL:
                entering = j  # Bland: smallest improving index
                break
        if entering < 0:
            break
        leaving = -1
        best = np.inf
        for i in range(n_rows):
            a = tableau[i, entering]
            if a > _PIVOT_TOL:
                ratio = tableau[i, -1] / a
                if ratio < best - 1e-15 or (
                    abs(ratio - best) <= 1e-15
                    and (leaving < 0 or basis[i] < basis[leaving])
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise BisectionError("phase-1 objective unbounded; malformed input")
        pivot = tableau[leaving, entering]
        tableau[leaving] /= pivot
        for i in range(n_rows):
            if i != leaving and tableau[i, entering] != 0.0:
                tableau[i] -= tableau[i, entering] * tableau[leaving]
        obj -= obj[entering] * tableau[leaving]
        basis[leaving] = entering
    else:
        raise BisectionError("simplex pivot limit exceeded")

    x = np.zeros(n_cols)
    for i, var in enumerate(basis):
        if var < n_cols:
            x[var] = tableau[i, -1]
    return float(obj[-1]), x


def lp_feasible(
    p: ProbabilityVector,
    r: ProbabilityVector,
    q: ProbabilityVector,
    s: ProbabilityVector,
    tol: float = DEFAULT_TOL,
) -> FeasibilityResult:
    """Decide existence of a column-stochastic E with Ep = q and Er = s."""
    if p.dim != r.dim:
        raise DimensionMismatch(f"dim(p)={p.dim} != dim(r)={r.dim}")
    if q.dim != s.dim:
        raise DimensionMismatch(f"dim(q)={q.dim} != dim(s)={s.dim}")
    if not tol > 0.0:
        raise NonPositiveTolerance(f"tol must be > 0, got {tol!r}")
    n = p.dim
    m = q.dim
    pv = np.asarray(p.entries)
    rv = np.asarray(r.entries)

    # variables: E flattened row-major, E[i, j] at index i*n + j
    n_vars = m * n
    A = np.zeros((2 * m + n, n_vars))
    b = np.zeros(2 * m + n)
    for i in range(m):
        A[i, i * n : (i + 1) * n] = pv
        b[i] = q.entries[i]
        A[m + i, i * n : (i + 1) * n] = rv
        b[m + i] = s.entries[i]
    for j in range(n):
        A[2 * m + j, j::n] = 1.0
        b[2 * m + j] = 1.0

    optimum, x = _phase_one(A, b)
    feasible = optimum <= tol
    if feasible:
        residual = float(np.max(np.abs(A @ x - b)))
        return FeasibilityResult(True, residual)
    return FeasibilityResult(False, optimum)
