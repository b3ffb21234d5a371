"""Independent LP feasibility oracle for relative majorization.

Decides whether a column-stochastic matrix exists mapping p -> q and
r -> s, by a self-contained dense phase-1 simplex. Pricing takes the
largest reduced cost (Dantzig's rule); after n_rows pivots in a row that
make no progress it takes Bland's rule (smallest improving column) until
one does, so the simplex cannot cycle. Ties in the ratio test go to the
smallest basic variable, so the vertex found is deterministic; each pivot
is one pricing step, one masked ratio test and one outer-product update.
numpy is imported inside the two functions that build the tableau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import ProbabilityVector
from .errors import BisectionError, DimensionMismatch, NonPositiveTolerance

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-7

_PIVOT_TOL = 1e-11
_RATIO_TIE = 1e-15
_MAX_PIVOTS = 20_000


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    max_violation: float


def _phase_one(A: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimize the artificial mass of Ax = b, x >= 0 (b >= 0 assumed).

    Returns (optimum, x at optimum restricted to the original columns).
    """
    import numpy as np

    n_rows, n_cols = A.shape
    # constraints [A | I | b], then the phase-1 objective with the
    # artificials priced out, so one pivot updates both
    t = np.zeros((n_rows + 1, n_cols + n_rows + 1))
    t[:-1, :n_cols] = A
    t[:-1, n_cols:-1] = np.eye(n_rows)
    t[:-1, -1] = b
    t[-1, :n_cols] = A.sum(axis=0)
    t[-1, -1] = b.sum()
    obj = t[-1, :-1]
    rhs = t[:-1, -1]
    basis = np.arange(n_cols, n_cols + n_rows)
    stalled = 0  # pivots in a row that made no progress (theta <= tie)

    for _ in range(_MAX_PIVOTS):
        if stalled < n_rows:
            entering = obj.argmax()  # Dantzig: largest reduced cost
        else:
            entering = (obj > _PIVOT_TOL).argmax()  # Bland: smallest improving index
        if not obj[entering] > _PIVOT_TOL:
            break
        col = t[:, entering]
        rows = (col[:-1] > _PIVOT_TOL).nonzero()[0]
        if rows.size == 0:
            raise BisectionError("phase-1 objective unbounded; malformed input")
        ratios = rhs[rows] / col[rows]
        theta = ratios.min()
        # a difference, not min + tie: that sum rounds a 1.1e-15 gap to a tie
        ties = rows[ratios - theta <= _RATIO_TIE]
        leaving = ties[basis[ties].argmin()]
        row = t[leaving] / col[leaving]
        t -= col[:, None] * row  # also clobbers t[leaving], reset next
        # tied rows stay basic at 0: rhs_i - col_i * theta is >= 0 exactly
        # but can round below 0
        rhs[ties] = 0.0
        t[leaving] = row
        basis[leaving] = entering
        stalled = stalled + 1 if theta <= _RATIO_TIE else 0
    else:
        raise BisectionError("simplex pivot limit exceeded")

    x = np.zeros(n_cols)
    orig = basis < n_cols
    x[basis[orig]] = rhs[orig]
    return float(t[-1, -1]), x


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
    if not 0.0 < tol < math.inf:  # NaN too; an infinite tol accepts any optimum
        raise NonPositiveTolerance(f"tol must be finite and > 0, got {tol!r}")
    import numpy as np

    n = p.dim
    m = q.dim

    # variables: E flattened row-major, E[i, j] at index i*n + j; rows:
    # (Ep)_i = q_i, (Er)_i = s_i, then column sums sum_i E[i, j] = 1.
    # I_m ⊗ p by broadcasting: np.kron's overhead outweighs a small problem
    eye_m = np.eye(m)[:, :, None]
    A = np.vstack(
        [
            (eye_m * p.entries).reshape(m, m * n),
            (eye_m * r.entries).reshape(m, m * n),
            np.tile(np.eye(n), m),
        ]
    )
    b = np.concatenate([q.entries, s.entries, np.ones(n)])

    optimum, x = _phase_one(A, b)
    feasible = optimum <= tol
    if feasible:
        residual = float(np.max(np.abs(A @ x - b)))
        return FeasibilityResult(True, residual)
    return FeasibilityResult(False, optimum)
