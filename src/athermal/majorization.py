"""Testing-region geometry.

The lower boundary of the testing region of a state (r, g) is the
piecewise-linear concave curve through the "elbows" obtained from prefix
sums in non-increasing r_i/g_i order. Domination at the target's elbows, the
one at ordinate 1/2 included, decides relative majorization; `_first_shortfall`
is the one comparison, behind the verdict and `convert`'s witness alike.

Two paths build boundaries, split at `core._NUMPY_MIN_DIM` (100) levels of
the state; both give identical elbows (tests/test_numpy_path.py). A boundary
stores its elbows once, in the form its path built, and a decision compares
on the path of the target's form, with identical verdicts:

- Pure Python, below the threshold. Building a boundary is one sort,
  O(n log n), and one pass; evaluating it at one ordinate is a bisection
  over the stored elbows (`alpha_at`), O(log n). Deciding domination at
  all m target elbows is one merge walk along their ascending ordinates,
  which lie in [0, 1], O(n + m), with `alpha_at`'s segment rule and
  formula. It has no fixed cost per call, so at n = 32 a full decision
  takes a third of the time it takes in numpy; it stays the path of every
  small input, including the qubit and dim <= 64 solver layers.
- numpy, from the threshold up, unless a chain of near-tied ratios drifts
  (`_elbows_by_numpy`). The same sort, prefix sums and merge rule in
  whole-array steps, and `np.interp` (`alphas_at`) at the compared
  ordinates. A full decision from raw lists at n = 2048 takes about a
  seventh of its pure-Python time (0.43-0.65 ms, 2-CPU x86-64).
  Validating the four raw lists (`core.ProbabilityVector`) takes 0.43 of
  it, the two boundary builds 0.41-0.52 and the comparison 0.05-0.07
  (medians over eight seeded decide pairs, two processes).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from operator import truediv

from .core import _NUMPY_MIN_DIM, AthermalityState
from .errors import YOutOfRange

# Additive slack for boundary-domination comparisons. Comparisons happen at
# exact elbow ordinates where both sides are short sums/products of inputs.
# Applied by `_margin` alone, and inline in `_first_shortfall`'s walk.
DOMINATION_SLACK = 1e-12

# Consecutive levels whose ratios r/g agree to this relative tolerance are
# one segment. The test is scale-invariant, so a real elbow between tiny
# masses is never merged away. Tied ratios that went through renormalization
# or a convex mixture differ by a few ulps (~1e-15), a hundredth of it, and
# merging two slopes this close moves the dropped elbow by at most this
# fraction of its segment's mass, a tenth of DOMINATION_SLACK.
COLLINEARITY_TOL = 1e-13

_Y_CLAMP = 1e-12


@dataclass(frozen=True, eq=False)
class TestingBoundary:
    """Elbows from (0,0) to (1,1), canonical (collinear-merged), stored once
    as abscissae `xs` and ordinates `ys` in the form they were built: tuples
    of floats, or read-only numpy arrays from the numpy path. The tuple
    forms are views, each made on its first read and kept: `elbows` as
    (x, y) pairs and `_tuples` for the bisection of `alpha_at`. The
    `np.interp` of `alphas_at` reads either form as it is.
    """

    xs: tuple[float, ...]  # or a read-only numpy array, as ys
    ys: tuple[float, ...]

    def __post_init__(self):
        xs, ys = self.xs, self.ys
        if len(xs) < 2 or len(ys) != len(xs):
            raise ValueError("boundary needs one ordinate per abscissa, at least two")
        if (xs[0], ys[0]) != (0.0, 0.0) or (xs[-1], ys[-1]) != (1.0, 1.0):
            raise ValueError("boundary must run from (0,0) to (1,1)")

    @cached_property
    def elbows(self) -> tuple[tuple[float, float], ...]:
        """The elbows as (x, y) pairs."""
        return tuple(zip(*self._tuples))

    @cached_property
    def _tuples(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """(xs, ys) as tuples of floats."""
        if isinstance(self.xs, tuple):
            return self.xs, self.ys
        return tuple(self.xs.tolist()), tuple(self.ys.tolist())

    def interior(self) -> tuple[tuple[float, float], ...]:
        """Elbows excluding the fixed endpoints (0,0) and (1,1)."""
        return self.elbows[1:-1]


def compute_elbows(state: AthermalityState) -> TestingBoundary:
    """The boundary of `state`, built on the first call (`_build_elbows`) and
    kept with the state, so every later monotone, bound, gap query or
    decision on it reads the same one. It is kept in the frozen state's
    `__dict__`, as `cached_property` keeps a value: no field, so `==`, `hash`
    and `repr` ignore it and `dataclasses.replace` starts without it. (A
    `cached_property` on the state would cost every state an import of this
    module on its first read, and a lock before Python 3.12.)"""
    kept = state.__dict__
    boundary = kept.get("_boundary")
    if boundary is None:
        boundary = kept["_boundary"] = _build_elbows(state)
    return boundary


def _build_elbows(state: AthermalityState) -> TestingBoundary:
    """Elbows of (r, g): prefix sums in non-increasing r_i/g_i order.

    One stable sort on the ratio r_i/g_i, then one pass of prefix sums that
    keeps an elbow only where the slope changes: a level joins the current
    segment when its ratio lies within the relative COLLINEARITY_TOL of the
    segment's first ratio. Tied levels therefore give one elbow whatever
    their order or split, which makes the output canonical.

    Once the prefix sum of g has rounded to 1, the remaining levels carry
    less than an ulp of Gibbs mass, and no more than that of r because their
    ratios are the smallest; they are folded into the endpoint (1, 1), so
    every interior elbow has an ordinate strictly inside (0, 1). Likewise a
    level whose Gibbs mass is below an ulp of the prefix sum leaves the
    ordinate unchanged: of elbows that share an ordinate only the last, the
    one `alpha_at` takes, is kept, so the ordinates strictly increase.
    """
    if state.dim >= _NUMPY_MIN_DIM:
        boundary = _elbows_by_numpy(state)
        if boundary is not None:
            return boundary
    r = state.r.entries
    g = state.g.entries
    ratio = list(map(truediv, r, g))
    order = sorted(range(len(ratio)), key=ratio.__getitem__, reverse=True)

    xs, ys = [0.0], [0.0]
    x = y = y_last = 0.0  # y_last is ys[-1]
    floor = ratio[order[0]] * (1.0 - COLLINEARITY_TOL)
    for idx in order:
        q = ratio[idx]
        if q < floor:  # slope changes: close the segment
            if y >= 1.0:  # the rest weighs under an ulp of 1: it ends at (1, 1)
                break
            if y == y_last:  # no Gibbs mass since the last elbow: replace it
                xs[-1] = x
            else:
                xs.append(x)
                ys.append(y)
                y_last = y
            floor = q * (1.0 - COLLINEARITY_TOL)
        x += r[idx]
        y += g[idx]
    xs.append(1.0)  # prefix sums of renormalized entries, pin exactly
    ys.append(1.0)
    return TestingBoundary(tuple(xs), tuple(ys))


def _elbows_by_numpy(state: AthermalityState) -> TestingBoundary | None:
    """`_build_elbows` in whole-array steps, with bit-identical output.

    The order is the stable reverse sort's. numpy's default argsort of
    -ratio may leave the indices of equal keys in any order; with the runs
    of equal sorted keys numbered along the sort, one integer sort of
    run << b | index, where 2**b > n, keeps every run in its place and puts
    its indices in ascending order, which is the stable order, and a mask
    then drops the run. It runs only where keys tie, and leaves the sorted
    ratios as they are.

    cumsum adds in sequence like the scalar loop. A segment starts where a
    ratio falls below its predecessor's floor; that is the scalar rule
    (against the segment's first ratio) whenever every segment's last ratio
    clears its first ratio's floor. A segment of equal ratios always does,
    so that check runs only where some segment merges unequal ones. None
    when some segment drifts further: the scalar pass then decides.

    Each numpy call costs microseconds at these sizes, so the elbows go
    straight into preallocated arrays, and only a boundary with elbows
    that share an ordinate takes a second, filtered copy.
    """
    import numpy as np

    r, g = state.r.array, state.g.array
    n = len(r)
    with np.errstate(over="ignore"):  # a subnormal g_i gives ratio inf, as in floats
        ratio = r / g
    order = (-ratio).argsort()
    sr = ratio.take(order)
    new = sr[1:] != sr[:-1]  # a run of equal keys starts
    ties = n - 1 - np.count_nonzero(new)
    if ties:  # each run of equal keys back in index order
        bits = n.bit_length()
        key = np.zeros(n, np.int64)
        new.cumsum(out=key[1:])
        key <<= bits
        key |= order
        key.sort()
        key &= (1 << bits) - 1
        order = key
    floor = sr * (1.0 - COLLINEARITY_TOL)
    ends = (sr[1:] < floor[:-1]).nonzero()[0]  # an elbow closes each segment but the last
    if len(ends) + ties < n - 1:  # some segment merges ratios that differ
        firsts = np.concatenate(([0], ends + 1))
        lasts = np.append(ends, n - 1)
        if (sr[lasts] < floor[firsts]).any():
            return None
    x = r.take(order)
    x.cumsum(out=x)
    y = g.take(order)
    y.cumsum(out=y)
    m = len(ends)
    xa, ya = np.empty(m + 2), np.empty(m + 2)
    xa[0] = ya[0] = 0.0
    xa[-1] = ya[-1] = 1.0
    x.take(ends, out=xa[1:-1])
    y.take(ends, out=ya[1:-1])
    # Of elbows that share an ordinate keep the last, the one `alpha_at`
    # takes, and none at ordinate 1: the rest weighs under an ulp of 1.
    keep = ya[1:-1] < ya[2:]
    if np.count_nonzero(keep) < m:
        keep = np.concatenate(([True], keep, [True]))
        xa, ya = xa[keep], ya[keep]
    xa.flags.writeable = ya.flags.writeable = False
    return TestingBoundary(xa, ya)


def alpha_at(boundary: TestingBoundary, y: float) -> float:
    """Boundary abscissa at ordinate y, by linear interpolation."""
    if not 0.0 <= y <= 1.0:  # NaN too
        if -_Y_CLAMP <= y < 0.0:
            y = 0.0
        elif 1.0 < y <= 1.0 + _Y_CLAMP:
            y = 1.0
        else:
            raise YOutOfRange(f"y={y!r} outside [0, 1]")
    xs, ys = boundary._tuples
    k = bisect_right(ys, y) - 1
    if k >= len(ys) - 1:
        return xs[-1]
    y0 = ys[k]
    if y == y0:
        return xs[k]
    x0 = xs[k]
    dx = xs[k + 1] - x0
    slope = dx / (ys[k + 1] - y0)
    if slope == math.inf:  # a subnormal height: dx times the quotient stays finite
        return x0 + dx * ((y - y0) / (ys[k + 1] - y0))
    return x0 + slope * (y - y0)


def alphas_at(boundary: TestingBoundary, ys):
    """`alpha_at` at every ordinate of the array ys, which lie in [0, 1].

    One `np.interp`: it takes the same elbow segment as `alpha_at` and
    evaluates the same slope * (y - y0) + x0, so each entry is bit-identical
    wherever the platform does not fuse that multiply-add. On a segment of
    subnormal height the slope overflows and np.interp gives no finite value;
    those entries are `alpha_at`'s.
    """
    import numpy as np

    alphas = np.interp(ys, boundary.ys, boundary.xs)
    if not np.isfinite(alphas).all():
        alphas, ys = np.array(alphas), np.asarray(ys, dtype=float)
        bad = ~np.isfinite(alphas)
        alphas[bad] = [alpha_at(boundary, y) for y in ys[bad].tolist()]
    return alphas


def _margin(alpha, x):
    """Signed margin of the domination rule, for floats and numpy arrays
    alike: >= 0 exactly where `_dominates`, since a >= b iff a - b >= 0 for
    finite doubles. The root finding of the gap sets follows its sign."""
    return alpha - (x - DOMINATION_SLACK)


def _dominates(alpha, x):
    """The one domination rule, for floats and numpy arrays alike: a boundary
    abscissa alpha reaches the abscissa x of a point down to DOMINATION_SLACK,
    so exact contact counts. Behind every decision: relative majorization,
    gap membership and the unreachable tags of the temperature bounds."""
    return _margin(alpha, x) >= 0.0


def relatively_majorizes(
    source: AthermalityState, target: AthermalityState
) -> bool:
    """True iff (r, g) of `source` relatively majorizes that of `target`.

    By convexity it suffices to dominate the target boundary at the target's
    elbows.
    """
    src = compute_elbows(source)
    tgt = compute_elbows(target)
    return _first_shortfall(src, tgt.xs, tgt.ys) is None


def _first_shortfall(src: TestingBoundary, xs, ys) -> int | None:
    """Index of the first point (xs[i], ys[i]) that the boundary `src` misses
    by more than DOMINATION_SLACK, or None: the one comparison, behind the
    verdict and `convert`'s witness. The ordinates ys ascend in [0, 1], none
    clamped. Numpy arrays take one `alphas_at`. Tuples take one merge walk
    along ys to the first shortfall: its segment index k only moves forward
    and ends on `alpha_at`'s segment, the last elbow with ordinate at most y,
    whose formula it applies, so each alpha is `alpha_at`'s bit for bit."""
    if not isinstance(xs, tuple):
        short = ~_dominates(alphas_at(src, ys), xs)
        return int(short.argmax()) if short.any() else None
    sx, sy = src._tuples
    last, k = len(sy) - 1, 0
    for i, (x, y) in enumerate(zip(xs, ys)):
        while k < last and sy[k + 1] <= y:
            k += 1
        y0 = sy[k]
        if y == y0:  # also at y = 1: sy[last] is 1
            alpha = sx[k]
        else:
            x0 = sx[k]
            dx = sx[k + 1] - x0
            slope = dx / (sy[k + 1] - y0)
            if slope == math.inf:  # `alpha_at`'s form for a subnormal height
                alpha = x0 + dx * ((y - y0) / (sy[k + 1] - y0))
            else:
                alpha = x0 + slope * (y - y0)
        # `_dominates` inline: a call per elbow cost 2.3 us on a 45 us
        # decision at n = 32 (+5%; 60 seeded pairs, min of 15, 2-CPU x86-64).
        if alpha < x - DOMINATION_SLACK:
            return i
    return None
