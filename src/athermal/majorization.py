"""Testing-region geometry.

The lower boundary of the testing region of a state (r, g) is the
piecewise-linear concave curve through the "elbows" obtained from prefix
sums in non-increasing r_i/g_i order. Pointwise domination of these
boundaries decides relative majorization; `_first_shortfall` is the one
comparison, shared by both decision methods.

Two paths build and compare boundaries, split at `core._NUMPY_MIN_DIM`
(100) levels of the state (of the target, for a decision); both give
identical elbows and verdicts (tests/test_numpy_path.py):

- Pure Python, below the threshold. Building a boundary is one sort,
  O(n log n), and one pass; evaluating it at an ordinate is a bisection
  over the stored elbows, O(log n), so deciding domination at all m target
  elbows is O(m log n). It has no fixed cost per call, so at n = 32 a full
  decision takes half the time it takes in numpy; it stays the path of
  every small input, including the qubit and dim <= 64 solver layers.
- numpy, from the threshold up. The same sort, prefix sums and merge rule
  in whole-array steps, and `np.interp` (`alphas_at`) at the compared
  ordinates. A boundary keeps its arrays and builds its elbow tuples only
  when they are read. A full decision at n = 2048 takes about 2 ms against
  6-11 ms in pure Python; the remaining cost is mostly validation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

from .core import _NUMPY_MIN_DIM, AthermalityState
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

    `xs` and `ys` hold the elbow abscissae and ordinates, for lookups, and
    `arrays` the same as numpy arrays, for `alphas_at`. A boundary built on
    the numpy path holds only the arrays until one of the three tuples is
    first read, so the vector decisions never build them.
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

    @classmethod
    def _from_arrays(cls, xa, ya) -> "TestingBoundary":
        """Boundary through the elbows (xa[i], ya[i]), which run from (0,0)
        to (1,1); its tuples are made on first read (`__getattr__`)."""
        xa.flags.writeable = ya.flags.writeable = False
        boundary = object.__new__(cls)
        boundary.__dict__["arrays"] = (xa, ya)
        return boundary

    def __getattr__(self, name):
        # Reached only for an attribute not set: on a `_from_arrays`
        # boundary, the three tuples before their first read.
        arrays = self.__dict__.get("arrays")
        if arrays is None or name not in ("elbows", "xs", "ys"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        xs, ys = tuple(arrays[0].tolist()), tuple(arrays[1].tolist())
        self.__dict__.update(elbows=tuple(zip(xs, ys)), xs=xs, ys=ys)
        return self.__dict__[name]

    @property
    def is_diagonal(self) -> bool:
        return len(self.elbows) == 2

    @cached_property
    def arrays(self):
        """(xs, ys) as read-only numpy arrays."""
        import numpy as np

        xa, ya = np.array(self.xs, dtype=float), np.array(self.ys, dtype=float)
        xa.flags.writeable = ya.flags.writeable = False
        return xa, ya

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
    if state.dim >= _NUMPY_MIN_DIM:
        boundary = _elbows_by_numpy(state)
        if boundary is not None:
            return boundary
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


def _elbows_by_numpy(state: AthermalityState) -> TestingBoundary | None:
    """`compute_elbows` in whole-array steps, with bit-identical output.

    The stable argsort of -ratio is the order of the stable reverse sort,
    and cumsum adds in sequence like the scalar loop. A segment starts where
    a ratio falls below its predecessor's floor; that is the scalar rule
    (against the segment's first ratio) whenever every segment's last ratio
    clears its first ratio's floor. None when some segment drifts further:
    the scalar pass then decides.
    """
    import numpy as np

    r, g = state.r.array, state.g.array
    with np.errstate(over="ignore"):  # a subnormal g_i gives ratio inf, as in floats
        ratio = r / g
    order = np.argsort(-ratio, kind="stable")
    sr = ratio[order]
    floor = sr * (1.0 - COLLINEARITY_TOL)
    starts = np.flatnonzero(sr[1:] < floor[:-1]) + 1
    firsts = np.concatenate(([0], starts))
    lasts = np.concatenate((starts, [len(sr)])) - 1
    if (sr[lasts] < floor[firsts]).any():
        return None
    x = np.cumsum(r[order])
    y = np.cumsum(g[order])
    ends = starts - 1  # an elbow closes each segment but the last
    ends = ends[y[ends] < 1.0]  # the rest weighs under an ulp of 1: it ends at (1, 1)
    return TestingBoundary._from_arrays(
        np.concatenate(([0.0], x[ends], [1.0])),
        np.concatenate(([0.0], y[ends], [1.0])),
    )


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


def alphas_at(boundary: TestingBoundary, ys):
    """`alpha_at` at every ordinate of the array ys, which lie in [0, 1].

    One `np.interp`: it takes the same elbow segment as `alpha_at` and
    evaluates the same slope * (y - y0) + x0, so each entry is bit-identical
    wherever the platform does not fuse that multiply-add.
    """
    import numpy as np

    xa, ya = boundary.arrays
    return np.interp(ys, ya, xa)


def relatively_majorizes(
    source: AthermalityState, target: AthermalityState
) -> bool:
    """True iff (r, g) of `source` relatively majorizes that of `target`.

    By convexity it suffices to dominate the target boundary at the target's
    elbows.
    """
    src = compute_elbows(source)
    tgt = compute_elbows(target)
    points = tgt.arrays if target.dim >= _NUMPY_MIN_DIM else (tgt.xs, tgt.ys)
    return _first_shortfall(src, *points) is None


def _points_at(boundary: TestingBoundary, ys: tuple[float, ...], vector: bool):
    """The points (xs, ys) of `boundary` at the ordinates ys: tuples by
    `alpha_at`, or numpy arrays by `alphas_at` when `vector`, so that
    `_first_shortfall` compares them on the matching path and an array-backed
    boundary never builds its tuples."""
    if not vector:
        return tuple(alpha_at(boundary, y) for y in ys), ys
    import numpy as np

    ya = np.array(ys)
    return alphas_at(boundary, ya), ya


def _first_shortfall(src: TestingBoundary, xs, ys) -> int | None:
    """Index of the first point (xs[i], ys[i]) that the boundary `src` misses
    by more than DOMINATION_SLACK, or None: the one comparison of both
    decision methods. Tuples are walked with `alpha_at`, which stops at the
    first shortfall; numpy arrays take one `alphas_at`."""
    if isinstance(xs, tuple):
        for i, (x, y) in enumerate(zip(xs, ys)):
            if alpha_at(src, y) < x - DOMINATION_SLACK:
                return i
        return None
    short = alphas_at(src, ys) < xs - DOMINATION_SLACK
    return int(short.argmax()) if short.any() else None
