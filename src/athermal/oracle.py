"""Independent LP feasibility oracle for relative majorization.

Decides whether a column-stochastic matrix E exists with Ep = q and Er = s,
by a self-contained dense phase-1 simplex on the 2m + n rows (Ep)_i = q_i,
(Er)_i = s_i and sum_i E[i, j] = 1.

The start (`_start`) is a vertex that already meets every column sum: in
the north-west-corner order of the transportation problem, source level j
goes whole to the target level i(j) whose running sum of s holds the middle
of r_j, so E[i(j), j] = 1 is basic in column-sum row j with pivot 1. Only
the 2m rows Ep = q and Er = s start on artificials, each row signed so that
its artificial is >= 0. The canonical tableau comes from one row operation
per row, with no division.

The kernel (`_phase_one`) minimises the sum of the artificials. Pricing
takes the largest reduced cost (Dantzig's rule), and the ratio test is
Harris's: of the rows that block within `_HARRIS_SLACK` of their rhs, the
one with the largest pivot leaves, so that a near-degenerate row does not
pivot on an entry near `_PIVOT_TOL`. After n_rows pivots in a row that make
no progress the kernel takes Bland's rule (smallest improving column, ties
in the ratio test to the smallest basic variable) until one does, so the
simplex cannot cycle. Every rhs is kept >= 0. The vertex found is
deterministic; each pivot is one pricing step, one masked ratio test over
every row and one rank-1 update into a preallocated buffer.

`max_violation` is the largest residual |Ax - b| of the returned vertex.
A result is feasible when the phase-1 optimum and that residual are both
within `tol`. When the optimum is not, `max_violation` is the optimum, the
sum of the 2m signed artificials. An optimum within `tol` whose vertex
misses a constraint by more (the tableau lost accuracy) is not feasible
either, and reports that residual. numpy is imported inside the functions
that build arrays.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

from .core import ProbabilityVector
from .errors import BisectionError, DimensionMismatch, NonPositiveTolerance

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOL = 1e-7

_PIVOT_TOL = 1e-11
_RATIO_TIE = 1e-15
_HARRIS_SLACK = 1e-12
_MAX_PIVOTS = 20_000


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    max_violation: float


def _phase_one(t: np.ndarray, basis: np.ndarray) -> tuple[float, np.ndarray]:
    """Run phase 1 on the canonical tableau `t` in place.

    `t` is [constraints | rhs] over the phase-1 objective row, whose reduced
    costs have the basic artificials priced out; `basis[i]` is the column
    basic in row i, and every rhs is >= 0. Returns (optimum, x at the
    optimum over every column of t but the rhs, artificials last).
    """
    import numpy as np

    n_rows = basis.size
    obj = t[-1, :-1]
    rhs = t[:-1, -1]
    ratios = np.empty(n_rows)
    bounds = np.empty(n_rows)  # the Harris ratio test's first pass
    update = np.empty_like(t)  # the rank-1 term of each pivot
    no_tie = t.shape[1]  # above every column index
    stalled = 0  # pivots in a row that made no progress (theta <= tie)

    for _ in range(_MAX_PIVOTS):
        bland = stalled >= n_rows
        if bland:
            entering = (obj > _PIVOT_TOL).argmax()  # Bland: smallest improving index
        else:
            entering = obj.argmax()  # Dantzig: largest reduced cost
        if not obj[entering] > _PIVOT_TOL:
            break
        col = t[:, entering]
        c = col[:-1]
        blocking = c > _PIVOT_TOL
        # a minimum as the entry at argmin: numpy's min reduction costs more
        if bland:
            ratios.fill(np.inf)
            np.divide(rhs, c, out=ratios, where=blocking)
            theta = ratios[ratios.argmin()]
            if theta == np.inf:
                raise BisectionError("phase-1 objective unbounded; malformed input")
            # a difference, not min + tie: that sum rounds a 1.1e-15 gap to a tie
            leaving = np.where(ratios - theta <= _RATIO_TIE, basis, no_tie).argmin()
        else:
            # Harris: the largest pivot among the rows that block within
            # _HARRIS_SLACK of their rhs, so that a near-degenerate row with a
            # tiny pivot does not blow the tableau up
            bounds.fill(np.inf)
            np.divide(rhs + _HARRIS_SLACK, c, out=bounds, where=blocking)
            bound = bounds[bounds.argmin()]
            if bound == np.inf:
                raise BisectionError("phase-1 objective unbounded; malformed input")
            # rows that do not block keep stale ratios, but their pivots,
            # <= _PIVOT_TOL, never beat the row that set the bound
            np.divide(rhs, c, out=ratios, where=blocking)
            leaving = ((ratios <= bound) * c).argmax()
            theta = ratios[leaving]
        row = t[leaving] / col[leaving]
        np.multiply.outer(col, row, out=update)
        t -= update  # also clobbers t[leaving], reset next
        # every rhs stays >= 0: a row that blocks before theta (Harris) ends
        # at most _HARRIS_SLACK below 0, and rounding can take a tie below 0
        np.maximum(rhs, 0.0, out=rhs)
        t[leaving] = row
        basis[leaving] = entering
        stalled = stalled + 1 if theta <= _RATIO_TIE else 0
    else:
        raise BisectionError("simplex pivot limit exceeded")

    x = np.zeros(obj.size)
    x[basis] = rhs
    return float(t[-1, -1]), x


def _start(
    p: ProbabilityVector, r: ProbabilityVector, q: ProbabilityVector, s: ProbabilityVector
) -> tuple[np.ndarray, np.ndarray]:
    """The canonical phase-1 tableau and basis at the north-west-corner
    vertex E[i(j), j] = 1, with artificials on the 2m rows Ep = q, Er = s."""
    import numpy as np

    n, m = p.dim, q.dim
    mn, k = m * n, 2 * m
    # i(j): the target level whose running Gibbs sum holds the middle of r_j
    ends = list(accumulate(s.entries))
    to = [
        min(bisect_right(ends, total - 0.5 * g), m - 1)
        for total, g in zip(accumulate(r.entries), r.entries)
    ]
    # what is left of q and s once every column is sent whole, signed >= 0
    rest = [*q.entries, *s.entries]
    for j, i in enumerate(to):
        rest[i] -= p.entries[j]
        rest[m + i] -= r.entries[j]
    signs = np.array([-1.0 if x < 0.0 else 1.0 for x in rest]).reshape(2, m, 1, 1)
    weights = signs * np.array((p.entries, r.entries))[:, None, None]
    eye_m = np.eye(m)
    t = np.zeros((k + n + 1, mn + k + 1))
    block = t[:, :mn].reshape(k + n + 1, m, n)  # a view: a row's entries at E[i, j]
    # row i of Ep = q is p_j at every E[i, j]; less p_j times column-sum row
    # j wherever i(j) = i, it is 0 at every basic E[i(j), j]; Er = s alike
    block[:k] = ((eye_m[:, :, None] - eye_m[:, to][:, None]) * weights).reshape(k, m, n)
    block[k:-1] = np.eye(n)[:, None]
    t[:k, mn:-1] = np.eye(k)
    t[:-1, -1] = [*map(abs, rest), *[1.0] * n]
    # the phase-1 objective with the basic artificials priced out
    t[-1, :mn] = t[:k, :mn].sum(axis=0)
    t[-1, -1] = t[:k, -1].sum()
    return t, np.array([*range(mn, mn + k), *(i * n + j for j, i in enumerate(to))])


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

    optimum, x = _phase_one(*_start(p, r, q, s))
    if not optimum <= tol:
        return FeasibilityResult(False, optimum)
    import numpy as np

    # Ax = b: E flattened row-major, E[i, j] at index i*n + j; rows (Ep)_i = q_i,
    # (Er)_i = s_i, then the column sums sum_i E[i, j] = 1
    n, m = p.dim, q.dim
    weights = np.array((p.entries, r.entries))[:, None, None]  # p, r along each row of E
    A = np.zeros((2 * m + n, m, n))  # a row's entries at E[i, j]
    # I_m ⊗ p and I_m ⊗ r by broadcasting: np.kron's overhead outweighs a small problem
    A[: 2 * m] = (np.eye(m)[:, :, None] * weights).reshape(2 * m, m, n)
    A[2 * m :] = np.eye(n)[:, None]
    A = A.reshape(2 * m + n, m * n)
    b = np.array((*q.entries, *s.entries, *[1.0] * n))
    residual = float(abs(A @ x[: m * n] - b).max())
    # in exact arithmetic the residual is at most the optimum; a larger one
    # means the tableau lost accuracy, and its vertex certifies nothing
    return FeasibilityResult(residual <= tol, residual)
