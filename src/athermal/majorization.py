"""Testing-region geometry.

The lower boundary of the testing region of a state (r, g) is the
piecewise-linear concave curve through the "elbows" obtained from prefix
sums in non-increasing r_i/g_i order. Pointwise domination of these
boundaries decides relative majorization.

Building a boundary costs one sort, O(n log n); the elbow coordinates are
stored once, so evaluating a boundary at an ordinate is a bisection,
O(log n), and deciding domination at all m target elbows is O(m log n).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from .core import AthermalityState
from .errors import YOutOfRange

# Additive slack for boundary-domination comparisons. Comparisons happen at
# exact elbow ordinates where both sides are short sums/products of inputs.
DOMINATION_SLACK = 1e-12

# Consecutive levels whose ratios r/g agree to this relative tolerance are
# one segment. The test is scale-invariant, so a real elbow between tiny
# masses is never merged away. Tied ratios that went through renormalization
# or a convex mixture differ by a few ulps (~1e-15), a hundredth of it, and
# merging two slopes this close moves the dropped elbow by at most this
# fraction of its segment's mass, a tenth of DOMINATION_SLACK.
COLLINEARITY_TOL = 1e-13

_Y_CLAMP = 1e-12


@dataclass(frozen=True)
class TestingBoundary:
    """Ordered elbow list from (0,0) to (1,1); canonical (collinear-merged).

    `xs` and `ys` hold the elbow abscissae and ordinates, for lookups.
    """

    elbows: tuple[tuple[float, float], ...]
    xs: tuple[float, ...] = field(init=False, repr=False, compare=False)
    ys: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.elbows) < 2:
            raise ValueError("boundary needs at least the two endpoints")
        if self.elbows[0] != (0.0, 0.0) or self.elbows[-1] != (1.0, 1.0):
            raise ValueError("boundary must run from (0,0) to (1,1)")
        xs, ys = zip(*self.elbows)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def is_diagonal(self) -> bool:
        return len(self.elbows) == 2

    def interior(self) -> tuple[tuple[float, float], ...]:
        """Elbows excluding the fixed endpoints (0,0) and (1,1)."""
        return self.elbows[1:-1]

    def to_csv(self) -> str:
        """One `x,y` row per elbow, 17 significant digits, LF endings."""
        return "".join(f"{x:.17g},{y:.17g}\n" for x, y in self.elbows)


def compute_elbows(state: AthermalityState) -> TestingBoundary:
    """Elbows of (r, g): prefix sums in non-increasing r_i/g_i order.

    One stable sort on the ratio r_i/g_i, then one pass of prefix sums that
    keeps an elbow only where the slope changes: a level joins the current
    segment when its ratio lies within the relative COLLINEARITY_TOL of the
    segment's first ratio. Tied levels therefore give one elbow whatever
    their order or split, which makes the output canonical.

    Once the prefix sum of g has rounded to 1, the remaining levels carry
    less than an ulp of Gibbs mass, and no more than that of r because their
    ratios are the smallest; they are folded into the endpoint (1, 1), so
    every interior elbow has an ordinate strictly inside (0, 1).
    """
    r = state.r.entries
    g = state.g.entries
    ratio = [ri / gi for ri, gi in zip(r, g)]
    order = sorted(range(len(ratio)), key=ratio.__getitem__, reverse=True)

    elbows = [(0.0, 0.0)]
    x = y = 0.0
    floor = ratio[order[0]] * (1.0 - COLLINEARITY_TOL)
    for idx in order:
        if ratio[idx] < floor:  # slope changes: close the segment
            if y >= 1.0:  # the rest weighs under an ulp of 1: it ends at (1, 1)
                break
            elbows.append((x, y))
            floor = ratio[idx] * (1.0 - COLLINEARITY_TOL)
        x += r[idx]
        y += g[idx]
    elbows.append((1.0, 1.0))  # prefix sums of renormalized entries, pin exactly
    return TestingBoundary(tuple(elbows))


def alpha_at(boundary: TestingBoundary, y: float) -> float:
    """Boundary abscissa at ordinate y, by linear interpolation."""
    if y < 0.0 or y > 1.0:
        if -_Y_CLAMP <= y < 0.0:
            y = 0.0
        elif 1.0 < y <= 1.0 + _Y_CLAMP:
            y = 1.0
        else:
            raise YOutOfRange(f"y={y!r} outside [0, 1]")
    xs, ys = boundary.xs, boundary.ys
    k = bisect_right(ys, y) - 1
    if k >= len(ys) - 1:
        return xs[-1]
    y0 = ys[k]
    if y == y0:
        return xs[k]
    x0 = xs[k]
    return x0 + (xs[k + 1] - x0) / (ys[k + 1] - y0) * (y - y0)


def relatively_majorizes(
    source: AthermalityState, target: AthermalityState
) -> bool:
    """True iff (r, g) of `source` relatively majorizes that of `target`.

    By convexity it suffices to dominate the target boundary at the target's
    elbow ordinates.
    """
    src = compute_elbows(source)
    tgt = compute_elbows(target)
    for x, y in tgt.elbows:
        if alpha_at(src, y) < x - DOMINATION_SLACK:
            return False
    return True
