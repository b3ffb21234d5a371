"""Extremal temperatures reachable with a given resource, and the maximal
ground-state overlap.

Cooling: the largest inverse temperature beta~ such that the target Gibbs
pair (g~(beta~), g) is still dominated by the resource boundary. Condition
k in [n-1] caps the mass of the k lowest levels at alpha_k. It is solved on
the log-odds

    L_k(beta~) = ln sum_{i<k} exp(-beta~ h_i) - ln sum_{i>=k} exp(-beta~ h_i),

which rises with slope <h>_{i>=k} - <h>_{i<k} > 0. Each sum is shifted by its
own largest exponent, so neither underflows.

One rule (`_condition`) settles each condition of `beta_max`, `beta_min`
and `qubit_beta_bounds`, whatever the target's size, from L = L_k(beta),
the mass sigma(L) at beta and alpha_k, the boundary at that mass, with
L_1 = beta E for a qubit and every other L_k(beta) from one Python `_sweep`.
It is tagged +inf when alpha_k reaches the limit of the k-level mass as
beta~ -> +inf; it keeps beta when that mass already reaches alpha_k at beta,
always so for a free resource (a Gibbs state cools nothing); else L_k must
rise by excess = logit(alpha_k) - L. A qubit's L_1 is linear, so its root
is beta + excess / E in closed form (`_qubit_root`): `qubit_beta_bounds`,
the monotones and `beta_max`/`beta_min` on any 2-level target take it alike
and agree bit for bit, and a gap so small that the root overflows a float
raises GapTooSmall there too. The conditions of larger targets are the rows
of one root search toward goal_k = L + excess, in three steps:
- Brackets. One sweep per probe x = beta + |beta| 2^j gives L_k(x) for
  every k at once in O(d) for d levels, from prefix and suffix sums of
  exp(-x h_i) (`_sweep`: running sums in Python, for x < 0 on the mirror
  below; `_sweep_array`: `np.logaddexp.accumulate`). A row's bracket ends
  at the first probe where its L_k reaches goal_k and starts at the probe
  before it, or at beta, where L_k is the rule's start. The doubling runs
  to the end of the float range: it stops, naming the first unbracketed
  row, once x (h_max - h_min) overflows. The probes scale with beta, so
  (2^s h, 2^-s beta) gives every root times 2^-s, bit for bit.
- Secant start. The search hands each row the secant point of its bracket
  as it brackets it, from the sweep's L_k at both ends; the midpoint if
  that point is not in (lo, hi].
- Safeguarded Newton from there. Each pass evaluates the row exactly
  (`_log_odds`: value and slope) and narrows its bracket; a step that
  leaves the bracket is replaced by a bisection step, and the search stops
  once the step or the bracket is narrower than `_REL_WIDTH` relative to
  the root, or to beta if that is larger (a heating root may lie at 0).
A probe costs O(d) for all rows together and a Newton step O(K d) for K
open rows. `_searched_conditions` takes every target through the same
steps (sweep at beta, alphas, rule, brackets, roots, report); the target's
level count picks only how the alphas are evaluated and the root kernel:
- below `_VECTOR_MIN_LEVELS`, `alpha_at` per row and `_cooling_root` per
  open row, O(d) interpreted operations per evaluation;
- from there up, one `alphas_at` over every row's mass and `_cooling_roots`
  (each Newton pass on all open rows from one flat array, `_log_odds_rows`).
`alphas_at` takes `alpha_at`'s segment and formula, so k, the alphas, the
tags and the goals are identical on both sides, and the roots agree to
rounding in the sums (tests/test_tempbounds_paths.py).

Heating is cooling mirrored, in the closed form as in the search:
exp(-beta~ h) = exp(-(-beta~)(-h)), so it solves the energies -h (reversed)
at -beta and negates the result, which may be negative (population
inversion). Either way the search takes the energies less the lowest of
them, which leaves every L_k unchanged, so targets far from energy 0 keep
the precision of those near it.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Sequence

from .core import AthermalityState, ExtendedBeta, GibbsContext, _check_beta, _check_gap
from .errors import (
    BisectionError,
    DegenerateTarget,
    GapTooSmall,
    NonFiniteBeta,
    WrongDegeneracy,
)
from .majorization import (
    TestingBoundary, _dominates, alpha_at, alphas_at, compute_elbows,
)

_REL_WIDTH = 1e-13
_MAX_ITERS = 200

# Targets with at least this many levels evaluate every alpha_k by one
# `alphas_at` and take the root kernel `_cooling_roots`, smaller ones
# `alpha_at` per row and `_cooling_root`. Time of one `_searched_conditions`
# call in ms against a 64-level resource, cooling and heating alternately,
# medians of three runs of 11 interleaved rounds over four targets per
# size; 2-CPU x86-64 host, numpy 2.4:
#   d              2     4     8    16    24    32    64   128   400
#   scalar       0.04  0.11  0.21  0.48  0.78  1.19  3.4    11     89
#   array        0.13  0.32  0.34  0.42  0.51  0.62  0.87  1.6    7.5
# The sides break even between 12 and 16 levels (array / scalar 1.15-1.30
# at 12, 0.83-0.90 at 16); from 24 the array side takes 0.7 of the time or
# less. Below the switch a call imports no numpy, whose import (0.12 s on
# that host) outweighs a gain under 0.1 ms a call. This is not
# `core._NUMPY_MIN_DIM`, which counts the levels of a state and breaks even
# near 100: here numpy replaces O(K d) interpreted operations per Newton
# step for K open conditions.
_VECTOR_MIN_LEVELS = 24


@dataclass(frozen=True)
class CoolingReport:
    beta_max: ExtendedBeta
    per_condition: tuple[tuple[int, ExtendedBeta, float], ...]


@dataclass(frozen=True)
class HeatingReport:
    beta_min: ExtendedBeta
    per_condition: tuple[tuple[int, ExtendedBeta, float], ...]


def _log_odds(head, tail, bt: float) -> tuple[float, float]:
    """L_k at bt and its slope dL_k/dbt > 0, for head = h[:k], tail = h[k:].

    Each weight sum is shifted by its largest exponent, -bt times its lowest
    energy for bt >= 0 and its highest below, as `shifted_weights` does; the
    energies are sorted, so those are the ends of the head and the tail."""
    neg, end = -bt, (0 if bt >= 0.0 else -1)
    shift_h, shift_t = neg * head[end], neg * tail[end]
    wh = [math.exp(neg * e - shift_h) for e in head]
    wt = [math.exp(neg * e - shift_t) for e in tail]
    zh, zt = sum(wh), sum(wt)
    value = shift_h - shift_t + math.log(zh / zt)
    mean_h = sum(map(operator.mul, wh, head)) / zh
    mean_t = sum(map(operator.mul, wt, tail)) / zt
    return value, mean_t - mean_h


def _sweep(h: Sequence[float], x: float) -> list[float]:
    """L_1 .. L_{d-1} at x in one O(d) pass of running sums.

    For x >= 0 the head sum of levels i < k is taken relative to the lowest
    level's weight and the tail sum of levels i >= k relative to level k's,
    so neither is below 1: W_k = sum_{i<k} exp(-x (h_i - h_0)) runs up from
    h_0, T_k = sum_{i>=k} exp(-x (h_i - h_k)) = 1 + q_k T_{k+1} down from the
    top with q_i = exp(-x (h_{i+1} - h_i)) <= 1, and
    L_k = x (h_k - h_0) + ln(W_k / T_k). For x < 0 it is that pass on the
    mirror, L_k(x; h) = -L_{d-k}(-x; -h reversed)."""
    if x < 0.0:
        return [-v for v in reversed(_sweep([-e for e in reversed(h)], -x))]
    q = [math.exp(x * (a - b)) for a, b in zip(h, h[1:])]
    t, tails = 1.0, [1.0]  # T_{d-1}, T_{d-2}, ..., T_1
    for qk in q[:0:-1]:
        t = 1.0 + qk * t
        tails.append(t)
    out: list[float] = []
    h0, w, head = h[0], 1.0, 0.0
    for hk, qk, t in zip(h[1:], q, reversed(tails)):
        head += w
        out.append(x * (hk - h0) + math.log(head / t))
        w *= qk
    return out


def _sweep_array(up, x: float) -> list[float]:
    """_sweep in numpy, from prefix and suffix log-sum-exp of -x up, for
    up = h - h_0 (L_k does not change when every energy is shifted)."""
    import numpy as np

    e = up * -x
    head = np.logaddexp.accumulate(e)
    tail = np.logaddexp.accumulate(e[::-1])[::-1]
    return (head[:-1] - tail[1:]).tolist()


def _brackets(
    sweep, h, beta: float, ks: Sequence[int], goals: Sequence[float],
    starts: Sequence[float],
) -> list[tuple[float, float, float]]:
    """(lo, hi, start) per row, from L_k(beta) = starts and the sweeps: hi is
    the first probe beta + |beta| 2^j at which L_k reaches the goal, lo the
    probe before it, or beta, and start the secant point of the bracket from
    L_k at both ends (hi if L_k(hi) is the goal), or its midpoint if that
    point is not inside. The doubling runs to the end of the float range,
    where x (h_max - h_min) overflows and no sweep is finite."""
    n = len(ks)
    span, found, offset = float(h[-1] - h[0]), [None] * n, abs(beta)
    rows = list(zip(range(n), ks, goals, [beta] * n, starts))  # (r, k, goal, lo, L(lo))
    while True:
        x = beta + offset
        if not math.isfinite(x * span):
            raise BisectionError(f"no bracket for condition k={rows[0][1]}")
        at_x, rest = sweep(h, x), []
        for r, k, goal, lo, at_lo in rows:
            v = at_x[k - 1]
            if v >= goal:
                t = (goal - at_lo) / (v - at_lo) if at_lo < goal else 0.5
                start = lo + (x - lo) * t
                found[r] = (lo, x, start if lo < start <= x else 0.5 * (lo + x))
            else:  # NaN too
                rest.append((r, k, goal, x, v))
        if not rest:
            return found
        rows, offset = rest, 2.0 * offset


def _cooling_root(
    h: Sequence[float], beta: float, k: int, goal: float, lo: float, hi: float,
    x: float,
) -> float:
    """The beta~ in (lo, hi] at which L_k reaches goal = logit(alpha_k),
    by safeguarded Newton from x inside the bracket of a search from beta."""
    head, tail = h[:k], h[k:]
    # L(lo) < goal <= L(hi) holds throughout.
    for _ in range(_MAX_ITERS):
        value, slope = _log_odds(head, tail, x)
        if value >= goal:
            hi = x
        else:
            lo = x
        mid = 0.5 * (lo + hi)
        width = _REL_WIDTH * max(abs(beta), abs(mid))
        if hi - lo < width:
            return mid
        step = (value - goal) / slope if slope > 0.0 else math.inf
        if abs(step) < width:
            return x - step
        x = x - step if lo < x - step < hi else mid
    return x


def _layout(k, d: int):
    """(cuts, sizes) of the open rows' k for `_log_odds_rows`: row r fills
    [r d, (r + 1) d) of the flat array, its head the first k_r entries and
    its tail the rest, so `reduceat` at cuts = r d, r d + k_r, ... reduces
    head, tail, head, tail, ..., whose sizes are k_r, d - k_r, ..."""
    import numpy as np

    cuts = np.arange(0, len(k) * d, d).repeat(2)
    cuts[1::2] += k
    sizes = np.empty_like(cuts)
    sizes[::2], sizes[1::2] = k, d - k
    return cuts, sizes


def _log_odds_rows(flat, x, cuts, sizes):
    """`_log_odds` of every open row at once: L_k and its slope at x, for
    flat = h once per row and the rows' `_layout`. Each head and tail is
    shifted by its largest exponent (np.maximum.reduceat), and
    np.add.reduceat sums each part's weights and their first moments."""
    import numpy as np

    e = (-x).repeat(len(flat) // len(x))
    e *= flat  # -x_r h_i, row after row
    shift = np.maximum.reduceat(e, cuts)
    e -= shift.repeat(sizes)
    w = np.exp(e, out=e)
    z = np.add.reduceat(w, cuts)
    w *= flat
    moment = np.add.reduceat(w, cuts)
    zh, zt = z[::2], z[1::2]
    value = shift[::2] - shift[1::2] + np.log(zh / zt)
    return value, moment[1::2] / zt - moment[::2] / zh


def _cooling_roots(
    h, beta: float, ks: Sequence[int], goals: Sequence[float],
    brackets: Sequence[tuple[float, float, float]],
) -> list[float]:
    """_cooling_root for every k at once on the energies h, an array: each
    row from its (lo, hi, start) by the same safeguarded Newton steps on its
    own bracket, one flat array a step (`_log_odds_rows`)."""
    import numpy as np

    k, goal = np.array(ks), np.array(goals)
    lo, hi, x = np.array(brackets).T
    d = len(h)
    flat, (cuts, sizes) = np.tile(h, len(k)), _layout(k, d)
    # A slope may round to 0 (far levels; np.where masks its step), and the
    # first moments overflow where the energies span most of the float
    # range: the scalar path meets the same values and warns of nothing.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # L(lo) < goal <= L(hi) holds on every row. The arrays (and the
        # layout) keep only the rows still open, compacted in a pass that
        # closes some.
        root, rows = np.empty(len(k)), np.arange(len(k))
        for _ in range(_MAX_ITERS):
            value, slope = _log_odds_rows(flat[: len(x) * d], x, cuts, sizes)
            rise = value >= goal
            lo, hi = np.where(rise, lo, x), np.where(rise, x, hi)
            mid = 0.5 * (lo + hi)
            width = _REL_WIDTH * np.maximum(abs(beta), np.abs(mid))
            step = np.where(slope > 0.0, (value - goal) / slope, np.inf)
            narrow = hi - lo < width
            done = narrow | (np.abs(step) < width)
            x = x - step
            if done.any():
                root[rows[done]] = np.where(narrow, mid, x)[done]
                live = ~done
                if not live.any():
                    break
                rows, k, goal, lo, hi, mid, x = (
                    a[live] for a in (rows, k, goal, lo, hi, mid, x)
                )
                cuts, sizes = _layout(k, d)
            x = np.where((lo < x) & (x < hi), x, mid)
        else:
            root[rows] = x
    return root.tolist()


def _mass(L: float) -> float:
    """The k-level Gibbs mass sigma(L) = 1 / (1 + e^-L), from its log-odds L."""
    if L >= 0.0:
        return 1.0 / (1.0 + math.exp(-L))
    e = math.exp(L)
    return e / (1.0 + e)


def _condition(
    boundary: TestingBoundary, L: float, y: float, alpha: float, limit: float
) -> tuple[float, float]:
    """(alpha_k, excess) for the k-level mass y = sigma(L) at beta, with
    `alpha` the caller's alpha_at(boundary, y) and `limit` the mass's limit as
    beta~ -> +inf: L_k reaches logit(alpha_k) at L + excess, excess +inf for
    the tag and <= 0 where the condition is met at beta. Two rows ignore
    `alpha`: a free resource's, whose alpha_k is y, and a far level's, a mass
    below the first elbow ordinate y1 and the smallest normal float (beta*gap
    past about 708), taken in logs: alpha_k = (x1/y1) y on the first segment
    and ln y = L + ln(1 - y), so ln(alpha_k) - L = ln x1 - ln y1 + ln(1 - y)."""
    if len(boundary.xs) == 2:  # a diagonal boundary: a free resource
        return y, 0.0
    if y < sys.float_info.min and y < boundary.ys[1]:  # far level: in logs
        log_ratio = math.log(boundary.xs[1]) - math.log(boundary.ys[1]) + math.log1p(-y)
        alpha = math.exp(log_ratio + L)
    else:
        log_ratio = math.log(alpha) - L
    if _dominates(alpha, limit):
        return alpha, math.inf
    return alpha, log_ratio - math.log1p(-alpha)


def _conditions(
    resource: AthermalityState, target: GibbsContext, heating: bool
) -> tuple[tuple[int, ExtendedBeta, float], ...]:
    """(k, beta~_k, alpha_k) of every condition; heating solves the mirror.

    As beta~ -> +inf the k-level mass tends to k/d below the ground
    degeneracy d, else to 1: the limit `_condition` tags against."""
    if target.energies[0] == target.energies[-1]:
        raise DegenerateTarget("target energies are completely degenerate")
    boundary = compute_elbows(resource)
    if len(target.energies) == 2:  # L_1 is linear: `_qubit_root`'s closed form
        E = target.energies[1] - target.energies[0]
        bt, alpha = _qubit_root(boundary, -target.beta if heating else target.beta, E)
        return ((1, ExtendedBeta(0.0 - bt if heating else bt), alpha),)
    return _searched_conditions(boundary, target, heating)


def _searched_conditions(
    boundary: TestingBoundary, target: GibbsContext, heating: bool
) -> tuple[tuple[int, ExtendedBeta, float], ...]:
    """`_conditions` by the root search, for a target of any level count
    (`_conditions` hands it 3 or more, the tests 2 as well, against the
    closed form). The size switch picks only the alpha and root kernels."""
    h, beta = target.energies, target.beta
    if heating:
        h, beta = tuple(-x for x in reversed(h)), -beta
    d = h.count(h[0])
    # L_k is unchanged by a common shift; from h - h_0 the exponents x h_i
    # round to the spread of the energies, not to their distance from 0.
    h = tuple(x - h[0] for x in h)
    Ls = _sweep(h, beta)
    ys = list(map(_mass, Ls))
    if len(h) >= _VECTOR_MIN_LEVELS:
        import numpy as np

        alphas, sweep, hs = alphas_at(boundary, ys).tolist(), _sweep_array, np.array(h)
    else:
        alphas, sweep, hs = None, _sweep, h
    per, open_ks, goals, starts = [], [], [], []
    for k, (L, y) in enumerate(zip(Ls, ys), 1):
        alpha = alpha_at(boundary, y) if alphas is None else alphas[k - 1]
        alpha_k, excess = _condition(boundary, L, y, alpha, k / d if k < d else 1.0)
        if 0.0 < excess < math.inf:
            open_ks.append(k)
            goals.append(L + excess)
            starts.append(L)
        # a met row keeps beta; an open row's beta is replaced by its root
        per.append([k, math.inf if excess == math.inf else beta, alpha_k])
    if open_ks:
        found = _brackets(sweep, hs, beta, open_ks, goals, starts)
        if alphas is not None:
            roots = _cooling_roots(hs, beta, open_ks, goals, found)
        else:
            roots = [
                _cooling_root(h, beta, k, goal, *b) for k, goal, b in zip(open_ks, goals, found)
            ]
        for k, root in zip(open_ks, roots):
            per[k - 1][1] = root
    # the mirror as 0.0 - b, so that a heating root of exactly 0 reads +0.0
    return tuple((k, ExtendedBeta(0.0 - b if heating else b), a) for k, b, a in per)


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
    """Closed-form (beta~_max, beta~_min) for a qubit target with gap E.

    The one condition of each side has the linear L_1 = beta~ E, so its root
    is beta + excess / E (`_qubit_root`), on the mirror -beta for beta~_min."""
    _check_gap(E)
    _check_beta(beta)
    boundary = compute_elbows(resource)
    return (ExtendedBeta(_qubit_root(boundary, beta, E)[0]),
            ExtendedBeta(0.0 - _qubit_root(boundary, -beta, E)[0]))


def _qubit_root(
    boundary: TestingBoundary, beta: float, E: float
) -> tuple[float, float]:
    """(beta~, alpha_1) of the gap-E qubit's cooling condition: the mass at
    beta is `_mass(beta E)`, the root beta + excess / E, the tag +inf for an
    infinite excess, or beta where the condition is met there (excess <= 0).
    beta E is kept apart from the excess: it may overflow where a far level's
    excess, in which it cancels, does not. Heating is the mirror,
    -_qubit_root(boundary, -beta, E): the float beta - excess / E but at a
    root of exactly 0, which the bounds keep +0.0 as 0.0 - root."""
    L = beta * E
    y = _mass(L)
    alpha, excess = _condition(boundary, L, y, alpha_at(boundary, y), 1.0)
    if excess <= 0.0:
        return beta, alpha
    if excess == math.inf:  # also where E = inf, and excess / E is NaN
        return math.inf, alpha
    value = beta + excess / E
    # a log-odds of order 1 over a gap near the subnormal range overflows
    if not math.isfinite(value):
        raise GapTooSmall(f"energy gap {E!r} too small: beta~ overflows a float")
    return value, alpha


def max_ground_overlap(
    resource: AthermalityState, target: GibbsContext, ground_degeneracy: int | None = None
) -> float:
    """Largest reachable overlap with the target's (degenerate) ground space,
    whose dimension d is read from the energies; a given d must match it."""
    h, d = target.energies, target.ground_degeneracy()
    if ground_degeneracy not in (None, d):
        raise WrongDegeneracy(
            f"ground degeneracy {ground_degeneracy} inconsistent with energies "
            f"(multiplicity {d})"
        )
    y = _mass(_sweep(h, target.beta)[d - 1]) if d < len(h) else 1.0
    return alpha_at(compute_elbows(resource), y)


def qubit_energy_change(E: float, beta: float, beta_tilde: float) -> float:
    """Mean-energy change of a gap-E qubit driven from beta to beta_tilde.

    beta_tilde may be negative or infinite: the limits of population
    inversion (-inf) and of cooling (+inf). The excited occupancy at each
    inverse temperature b is the mass `_mass(-b E)`."""
    _check_gap(E)
    _check_beta(beta)
    if math.isnan(beta_tilde):
        raise NonFiniteBeta(f"beta_tilde must not be NaN, got {beta_tilde!r}")
    return (_mass(-beta_tilde * E) - _mass(-beta * E)) * E
