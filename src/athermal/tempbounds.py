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
and `qubit_beta_bounds` from L = L_k(beta) and the mass sigma(L) at beta,
with L_1 = beta E for a qubit and every other L_k(beta) from one Python
`_sweep` (so the two forms below share their alphas bit for bit). It is
tagged +inf when alpha_k reaches the limit of the k-level mass as
beta~ -> +inf; it keeps beta when that mass already reaches alpha_k at beta,
always so for a free resource (a Gibbs state cools nothing); else L_k must
rise by excess = logit(alpha_k) - L. A qubit's L_1 is linear, so its root
is beta + excess / E in closed form (`_qubit_root`): `qubit_beta_bounds`,
the monotones and `beta_max`/`beta_min` on any 2-level target take it alike
and agree bit for bit, and a gap so small that the root overflows a float
raises GapTooSmall there too. The conditions of larger targets are the rows
of one root search toward goal_k = L + excess, in three steps:
- Brackets. One sweep per probe x = beta + 2^j gives L_k(x) for every k at
  once in O(d) for d levels, from prefix and suffix sums of exp(-x h_i)
  (`_sweep`: running sums in Python, for x < 0 on the mirror below;
  `_sweep_array`: `np.logaddexp.accumulate`). A row's bracket ends at the
  first probe where its L_k reaches goal_k and starts at the probe before
  it, or at beta, where L_k is the rule's start. The doubling runs to the
  end of the float range: it stops, naming the first unbracketed row, once
  x (h_max - h_min) overflows.
- Secant start. The search hands each row the secant point of its bracket
  as it brackets it, from the sweep's L_k at both ends; the midpoint if
  that point is not strictly inside.
- Safeguarded Newton from there. Each pass evaluates the row exactly
  (`_log_odds`: value and slope) and narrows its bracket; a step that
  leaves the bracket is replaced by a bisection step, and the search stops
  once the step or the bracket is narrower than `_REL_WIDTH` relative.
A probe costs O(d) for all rows together and a Newton step O(K d) for K
open rows. The conditions fork on the target's level count:
- below `_VECTOR_MIN_LEVELS`, one at a time in pure Python
  (`_one_by_one_conditions`: `_condition`, then `_cooling_root`), O(d)
  interpreted operations per evaluation;
- from there up, in whole-array steps (`_whole_array_conditions`): the same
  sweep, masses and rule, every alpha_k from one `alphas_at`, and every
  open row stepped at once (`_cooling_roots`). Each Newton pass evaluates
  the open rows from one flat array of K d exponents (`_log_odds_rows`):
  `np.maximum.reduceat` shifts each row's head and tail by their own
  largest exponent, `np.add.reduceat` sums their weights and first moments,
  and the arrays are compacted only in a pass where some row closes.
Both forms take the same steps and stop by the same rules, so their k, tags
and alphas are identical and their roots agree to rounding in the sums
(tests/test_tempbounds_paths.py).

Heating is cooling mirrored: exp(-beta~ h) = exp(-(-beta~)(-h)), so it
solves the energies -h (reversed) at -beta and negates the result, which
may be negative (population inversion).
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
_MAX_DOUBLINGS = 1024  # offsets 2^0 .. 2^1023, the largest power of two a float holds

# Targets with at least this many levels take their conditions in
# whole-array steps (`_whole_array_conditions`), smaller ones one at a time
# (`_one_by_one_conditions`); both bracket them from the same sweeps. Time
# of one `_searched_conditions` call in ms against a 64-level resource,
# cooling and heating alternately, medians of three runs of 11 interleaved
# rounds over four targets per size; 2-CPU x86-64 host, numpy 2.4:
#   d              2     4     8    16    24    32    64   128   400
#   one by one   0.02  0.09  0.20  0.43  0.83  1.02  3.5    11     77
#   whole-array  0.16  0.32  0.37  0.40  0.49  0.44  0.80  1.33   7.3
# The forms break even near 16 levels (whole-array / one by one 0.83-1.18
# at 16 and 1.15-1.44 at 12, over six runs); from 24 the whole-array form
# takes 0.6 of the time or less. Below the switch a call imports no numpy,
# whose import (about 0.12 s on that host) outweighs a gain under 0.1 ms a
# call. This is not `core._NUMPY_MIN_DIM`, which counts the levels of a
# state and breaks even near 100: here numpy replaces O(K d) interpreted
# operations per Newton step for K open conditions.
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
    if len(h) == 2:  # each sum is one weight, and L_1 is linear
        return [x * (h[1] - h[0])]
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
    the first probe beta + 2^j at which L_k reaches the goal, lo the probe
    before it, or beta, and start the secant point of the bracket from L_k at
    both ends, or its midpoint if that point is not strictly inside. The
    doubling runs to the end of the float range, where x (h_max - h_min)
    overflows and no sweep is finite."""
    n = len(ks)
    span, found, offset = float(h[-1] - h[0]), [None] * n, 1.0
    rows = list(zip(range(n), ks, goals, [beta] * n, starts))  # (r, k, goal, lo, L(lo))
    for _ in range(_MAX_DOUBLINGS):
        x = beta + offset
        if not math.isfinite(x * span):
            break
        at_x, rest = sweep(h, x), []
        for r, k, goal, lo, at_lo in rows:
            v = at_x[k - 1]
            if v >= goal:
                t = (goal - at_lo) / (v - at_lo) if at_lo < goal else 0.5
                start = lo + (x - lo) * t
                found[r] = (lo, x, start if lo < start < x else 0.5 * (lo + x))
            else:  # NaN too
                rest.append((r, k, goal, x, v))
        if not rest:
            return found
        rows, offset = rest, 2.0 * offset
    raise BisectionError(f"no bracket for condition k={rows[0][1]}")


def _cooling_root(
    h: Sequence[float], k: int, goal: float, lo: float, hi: float, x: float
) -> float:
    """The beta~ in (lo, hi] at which L_k reaches goal = logit(alpha_k),
    by safeguarded Newton from x inside the bracket."""
    head, tail = h[:k], h[k:]
    # L(lo) < goal <= L(hi) holds throughout.
    for _ in range(_MAX_ITERS):
        value, slope = _log_odds(head, tail, x)
        if value >= goal:
            hi = x
        else:
            lo = x
        mid = 0.5 * (lo + hi)
        width = _REL_WIDTH * max(1.0, abs(mid))
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
    energies: Sequence[float], beta: float, ks: Sequence[int], goals: Sequence[float],
    starts: Sequence[float],
) -> list[float]:
    """_cooling_root for every k at once: the same brackets, starts and
    safeguarded Newton steps, each row on its own bracket, one flat array a
    step (`_log_odds_rows`)."""
    import numpy as np

    h, k, goal = np.array(energies), np.array(ks), np.array(goals)
    brackets = _brackets(_sweep_array, h - h[0], beta, ks, goals, starts)
    lo, hi, x = np.array(brackets).T
    d = len(h)
    flat, (cuts, sizes) = np.tile(h, len(k)), _layout(k, d)
    # x * h may still overflow inside a bracket when the energies lie far
    # from 0; the NaN it leaves fails every comparison, as on the scalar
    # path, which warns of nothing.
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
            width = _REL_WIDTH * np.maximum(1.0, np.abs(mid))
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
    boundary: TestingBoundary, L: float, y: float, limit: float
) -> tuple[float, float]:
    """(alpha_k, excess) for the k-level mass y = sigma(L) at beta, whose
    limit as beta~ -> +inf is `limit`: L_k reaches logit(alpha_k) at
    L + excess. excess is +inf for the tag and <= 0 where the condition is
    met at beta. A far level, a mass below the first elbow ordinate y1 and
    the smallest normal float (it underflows once beta*gap passes about 708),
    is taken in logs: alpha_k = (x1/y1) y on the first segment and
    ln y = L + ln(1 - y), so ln(alpha_k) - L = ln(x1/y1) + ln(1 - y)."""
    if len(boundary.xs) == 2:  # a diagonal boundary: a free resource
        return y, 0.0
    if y < sys.float_info.min and y < boundary.ys[1]:  # far level: in logs
        log_ratio = math.log(boundary.xs[1] / boundary.ys[1]) + math.log1p(-y)
        alpha = math.exp(log_ratio + L)
    else:
        alpha = alpha_at(boundary, y)
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
    if target.is_degenerate:
        raise DegenerateTarget("target energies are completely degenerate")
    boundary = compute_elbows(resource)
    if len(target.energies) == 2:  # L_1 is linear: `_qubit_root`'s closed form
        E = target.energies[1] - target.energies[0]
        bt, alpha = _qubit_root(boundary, target.beta, E, -1.0 if heating else 1.0)
        return ((1, ExtendedBeta(bt), alpha),)
    return _searched_conditions(boundary, target, heating)


def _searched_conditions(
    boundary: TestingBoundary, target: GibbsContext, heating: bool
) -> tuple[tuple[int, ExtendedBeta, float], ...]:
    """`_conditions` by the root search, for a target of any level count;
    `_conditions` hands it those of 3 or more, and the tests hold it against
    the closed form on 2-level targets."""
    h, beta, d = target.energies, target.beta, target.ground_degeneracy()
    if heating:
        h, beta, d = tuple(-x for x in reversed(h)), -beta, target.top_degeneracy()
    if len(h) >= _VECTOR_MIN_LEVELS:
        return _whole_array_conditions(boundary, h, beta, d, heating)
    return _one_by_one_conditions(boundary, h, beta, d, heating)


def _one_by_one_conditions(
    boundary: TestingBoundary, h: Sequence[float], beta: float, d: int, heating: bool
) -> tuple[tuple[int, ExtendedBeta, float], ...]:
    """The conditions on the (mirrored) energies h at beta, with d levels at
    the bottom: `_condition` and `_cooling_root` on each in turn."""
    per, open_ks, goals, starts = [], [], [], []
    for k, L in enumerate(_sweep(h, beta), 1):
        alpha_k, excess = _condition(boundary, L, _mass(L), k / d if k < d else 1.0)
        if 0.0 < excess < math.inf:
            open_ks.append(k)
            goals.append(L + excess)
            starts.append(L)
        per.append((k, excess, alpha_k))
    roots = []
    if open_ks:
        rows = zip(open_ks, goals, _brackets(_sweep, h, beta, open_ks, goals, starts))
        roots = [_cooling_root(h, k, goal, *b) for k, goal, b in rows]
    roots, sign = iter(roots), (-1.0 if heating else 1.0)
    return tuple(
        (k, ExtendedBeta(sign * math.inf) if excess == math.inf
            else ExtendedBeta.finite(sign * (beta if excess <= 0.0 else next(roots))),
         alpha_k)
        for k, excess, alpha_k in per
    )


def _whole_array_conditions(
    boundary: TestingBoundary, h: Sequence[float], beta: float, d: int, heating: bool
) -> tuple[tuple[int, ExtendedBeta, float], ...]:
    """`_one_by_one_conditions` in whole-array steps, with `_cooling_roots`.

    The masses come from the same `_sweep` and `_mass`, and `alphas_at`
    takes the same elbow segments as `alpha_at`, so k, the tags and the
    alphas are identical; only the far-level rows go through `_condition`.
    The excess is taken with numpy's log, which may differ from the math
    module's by an ulp: a goal by as much, and a root by rounding."""
    import numpy as np

    Ls = _sweep(h, beta)
    ys = [_mass(L) for L in Ls]
    L, y = np.array(Ls), np.array(ys)
    ks = np.arange(1, len(h))
    if len(boundary.xs) == 2:  # a diagonal boundary: a free resource
        alpha, excess = y, np.zeros(len(y))
    else:
        alpha = alphas_at(boundary, y)
        # the log of 0 at alpha = 1 (tagged below) and alpha = 0 (a far row)
        with np.errstate(divide="ignore", invalid="ignore"):
            excess = np.log(alpha) - L - np.log1p(-alpha)
        limit = np.minimum(ks / d, 1.0)
        far = (y < sys.float_info.min) & (y < boundary.ys[1])
        for i in np.flatnonzero(far).tolist():  # in logs, as `_condition` takes them
            alpha[i], excess[i] = _condition(boundary, Ls[i], ys[i], limit[i])
        excess[_dominates(alpha, limit)] = math.inf
    searched = np.flatnonzero((excess > 0.0) & (excess < math.inf))
    sign = -1.0 if heating else 1.0
    betas = [ExtendedBeta.finite(sign * beta)] * len(ks)
    for i in np.flatnonzero(excess == math.inf).tolist():
        betas[i] = ExtendedBeta(sign * math.inf)
    if len(searched):
        open_ks = (searched + 1).tolist()
        goals = (L[searched] + excess[searched]).tolist()
        roots = _cooling_roots(h, beta, open_ks, goals, L[searched].tolist())
        for i, root in zip(searched.tolist(), roots):
            betas[i] = ExtendedBeta.finite(sign * root)
    return tuple(zip(ks.tolist(), betas, alpha.tolist()))


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

    The one condition of each side has the linear L_1 = beta~ E (-beta~ E on
    the heating mirror), so its root is beta +- excess / E (`_qubit_root`)."""
    _check_gap(E)
    _check_beta(beta)
    boundary = compute_elbows(resource)
    return (ExtendedBeta(_qubit_root(boundary, beta, E, 1.0)[0]),
            ExtendedBeta(_qubit_root(boundary, beta, E, -1.0)[0]))


def _qubit_side(
    resource: AthermalityState, E: float, beta: float, sign: float
) -> float:
    """One side of `qubit_beta_bounds` as a plain float: beta~_max for
    sign = +1, beta~_min for sign = -1; the other side is not settled."""
    _check_gap(E)
    _check_beta(beta)
    return _qubit_root(compute_elbows(resource), beta, E, sign)[0]


def _qubit_root(
    boundary: TestingBoundary, beta: float, E: float, sign: float
) -> tuple[float, float]:
    """(beta~, alpha_1) of the gap-E qubit's condition on the side of sign:
    with w = exp(-beta E), the mass at beta is 1 / (1 + w) cooling and
    w / (1 + w) heating (`_mass` of L = +-beta E), and the root is
    beta + sign * excess / E, the tag sign * inf for an infinite excess, or
    beta where the condition is met there (excess <= 0). beta E is kept apart
    from the excess: it may overflow where a far level's excess, in which it
    cancels, does not."""
    L, w = sign * (beta * E), math.exp(-beta * E)
    z = 1.0 + w
    alpha, excess = _condition(boundary, L, (1.0 if sign > 0.0 else w) / z, 1.0)
    if excess <= 0.0:
        return beta, alpha
    if excess == math.inf:  # also where E = inf, and excess / E is NaN
        return sign * math.inf, alpha
    value = beta + sign * excess / E
    # a log-odds of order 1 over a gap near the subnormal range overflows
    if not math.isfinite(value):
        raise GapTooSmall(f"energy gap {E!r} too small: beta~ overflows a float")
    return value, alpha


def max_ground_overlap(
    resource: AthermalityState, target: GibbsContext, ground_degeneracy: int = 1
) -> float:
    """Largest reachable overlap with the target's (degenerate) ground space."""
    if ground_degeneracy != target.ground_degeneracy():
        raise WrongDegeneracy(
            f"ground degeneracy {ground_degeneracy} inconsistent with energies "
            f"(multiplicity {target.ground_degeneracy()})"
        )
    h, k = target.energies, ground_degeneracy
    y = _mass(_sweep(h, target.beta)[k - 1]) if k < len(h) else 1.0
    return alpha_at(compute_elbows(resource), y)


def _excited_occupancy(beta: float, E: float) -> float:
    x = beta * E
    if x > 700.0:
        return 0.0
    return 1.0 / (1.0 + math.exp(x))


def qubit_energy_change(E: float, beta: float, beta_tilde: float) -> float:
    """Mean-energy change of a gap-E qubit driven from beta to beta_tilde.

    beta_tilde may be negative or infinite: the limits of population
    inversion (-inf) and of cooling (+inf)."""
    _check_gap(E)
    _check_beta(beta)
    if math.isnan(beta_tilde):
        raise NonFiniteBeta(f"beta_tilde must not be NaN, got {beta_tilde!r}")
    return (_excited_occupancy(beta_tilde, E) - _excited_occupancy(beta, E)) * E
