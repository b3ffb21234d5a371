"""The size-switched root search of `beta_max`/`beta_min`: one condition at a
time below `tempbounds._VECTOR_MIN_LEVELS` target levels, all open conditions
in one numpy pass from there up, both from the brackets of one shared sweep
per probe.

Each case solves the same resource and target twice, once with the switch
forced onto each path. Both paths share the settled conditions and every
alpha_k, so k, the tags and the alphas must be identical; the roots come
from the same steps on differently summed log-odds, so finite beta~ must
agree to 1e-12 relative (1e-12 absolute below |beta~| = 1).
"""

import functools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from athermal import (
    ExtendedBeta,
    GibbsContext,
    beta_max,
    beta_min,
    compute_elbows,
    gibbs_vector,
    validate_state,
)
from athermal import qubit_beta_bounds, tempbounds
from athermal.errors import BisectionError
from athermal.tempbounds import _VECTOR_MIN_LEVELS

ONE_BY_ONE = sys.maxsize
VECTOR = 1
LEVELS = (_VECTOR_MIN_LEVELS - 1, _VECTOR_MIN_LEVELS, 64, 400)
DEGENERACIES = ((1, 1), (2, 3), (3, 2))  # (ground, top)
RESOURCE_LEVELS = (8, 64, 256)


def _force(monkeypatch, threshold):
    monkeypatch.setattr(tempbounds, "_VECTOR_MIN_LEVELS", threshold)


def _resource(n):
    """A seeded resource; the 8-level one has two empty levels, so its
    boundary reaches 1 early and some conditions are tagged infinite."""
    rng = np.random.default_rng(n)
    g = rng.dirichlet(np.ones(n)) + 1e-3
    r = rng.dirichlet(np.full(n, 0.7))
    if n == 8:
        r[:2] = 0.0
    return validate_state(r / r.sum(), g / g.sum())


def _target(levels, ground, top):
    rng = np.random.default_rng([levels, ground, top])
    h = np.sort(rng.uniform(0.0, 3.0, levels))
    h[:ground], h[levels - top :] = 0.0, 3.0
    return GibbsContext(tuple(h.tolist()), float(rng.uniform(0.3, 2.5)))


def _solve(monkeypatch, threshold, resource, target):
    _force(monkeypatch, threshold)
    return beta_max(resource, target), beta_min(resource, target)


def _assert_same(report, report_vec):
    assert len(report.per_condition) == len(report_vec.per_condition)
    for (k, b, alpha), (k_vec, b_vec, alpha_vec) in zip(
        report.per_condition, report_vec.per_condition
    ):
        assert (k_vec, b_vec.kind, alpha_vec) == (k, b.kind, alpha)
        if b.is_finite:
            assert b_vec.value == pytest.approx(b.value, rel=1e-12, abs=1e-12)


def test_array_backed_resource():
    assert isinstance(compute_elbows(_resource(256)).xs, np.ndarray)


@pytest.mark.parametrize("n", RESOURCE_LEVELS)
@pytest.mark.parametrize("ground, top", DEGENERACIES)
@pytest.mark.parametrize("levels", LEVELS)
def test_paths_agree(monkeypatch, levels, ground, top, n):
    resource, target = _resource(n), _target(levels, ground, top)
    reports = _solve(monkeypatch, ONE_BY_ONE, resource, target)
    reports_vec = _solve(monkeypatch, VECTOR, resource, target)
    for report, report_vec in zip(reports, reports_vec):
        _assert_same(report, report_vec)
    cool, heat = reports
    assert heat.beta_min <= ExtendedBeta.finite(target.beta) <= cool.beta_max


def test_switch_at_threshold(monkeypatch):
    calls = []

    def roots(energies, beta, ks, goals, starts):
        calls.append(("roots", len(energies)))
        return [beta + 1.0] * len(ks)

    def spy(name):
        real = getattr(tempbounds, name)

        def setup(boundary, h, beta, d, heating):
            calls.append((name, len(h)))
            return real(boundary, h, beta, d, heating)

        monkeypatch.setattr(tempbounds, name, setup)

    monkeypatch.setattr(tempbounds, "_cooling_roots", roots)
    spy("_one_by_one_conditions")
    spy("_whole_array_conditions")
    for levels in (_VECTOR_MIN_LEVELS - 1, _VECTOR_MIN_LEVELS):
        beta_max(_resource(64), _target(levels, 1, 1))
    assert calls == [
        ("_one_by_one_conditions", _VECTOR_MIN_LEVELS - 1),
        ("_whole_array_conditions", _VECTOR_MIN_LEVELS),
        ("roots", _VECTOR_MIN_LEVELS),
    ]
    # Below the switch both bounds load no numpy: a fresh interpreter, since
    # this one has it loaded, on a resource from lists.
    target, resource = _target(_VECTOR_MIN_LEVELS - 1, 2, 3), _resource(8)
    code = (
        "import sys\n"
        "from athermal import GibbsContext, beta_max, beta_min, validate_state\n"
        f"target = GibbsContext({target.energies!r}, {target.beta!r})\n"
        f"resource = validate_state({resource.r.entries!r}, {resource.g.entries!r})\n"
        "beta_max(resource, target), beta_min(resource, target)\n"
        "print('numpy' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_doubling_cap_names_first_unbracketed(monkeypatch):
    # One probe at beta + 1 brackets only the conditions whose root lies
    # within 1 of beta; here the first few do and a later one does not.
    resource, target = _resource(8), _target(64, 3, 2)
    first = min(
        k for k, b, _ in beta_min(resource, target).per_condition
        if b.is_finite and target.beta - b.value > 1.0
    )
    assert first > 1
    monkeypatch.setattr(tempbounds, "_MAX_DOUBLINGS", 1)
    for threshold in (ONE_BY_ONE, VECTOR):
        _force(monkeypatch, threshold)
        with pytest.raises(BisectionError, match=f"condition k={first}$"):
            beta_min(resource, target)


def test_free_resource_keeps_beta(monkeypatch):
    # Every bottom-k mass at beta reaches alpha_k: no condition is searched.
    g = _resource(64).g.entries
    target = _target(_VECTOR_MIN_LEVELS, 1, 1)
    for threshold in (ONE_BY_ONE, VECTOR):
        cool, heat = _solve(monkeypatch, threshold, validate_state(g, g), target)
        for _, b, _ in cool.per_condition + heat.per_condition:
            assert b == ExtendedBeta.finite(target.beta)


@pytest.mark.parametrize("iters", [1, 3])
def test_newton_cap_returns_same_iterate(monkeypatch, iters):
    # Cut short, each root is the iterate after the same Newton or midpoint
    # steps on both paths, still far from converged.
    monkeypatch.setattr(tempbounds, "_MAX_ITERS", iters)
    resource, target = _resource(64), _target(64, 2, 3)
    reports = _solve(monkeypatch, ONE_BY_ONE, resource, target)
    reports_vec = _solve(monkeypatch, VECTOR, resource, target)
    for report, report_vec in zip(reports, reports_vec):
        _assert_same(report, report_vec)


def _mirror(target, heating):
    """Energies and beta of the cooling problem a report solves."""
    h, beta = target.energies, target.beta
    return (tuple(-e for e in reversed(h)), -beta) if heating else (h, beta)


def _exact_bracket(h, beta, k, goal):
    """The doubling bracket (lo, hi) of L_k = goal and the exact L_k at
    both ends, from `_log_odds` at beta and at every probe beta + 2^j."""
    lo, offset = beta, 1.0
    at_lo, _ = tempbounds._log_odds(h[:k], h[k:], beta)
    while True:
        x = beta + offset
        at_x, _ = tempbounds._log_odds(h[:k], h[k:], x)
        if at_x >= goal:
            return lo, x, at_lo, at_x
        lo, at_lo, offset = x, at_x, 2.0 * offset


def test_no_newton_step_returns_secant_point(monkeypatch):
    # With no Newton step allowed, each root is the one exact evaluation's
    # point: the secant point of its doubling bracket, strictly inside it,
    # from L_k at both ends. The sweeps that pick the bracket differ from
    # the exact L_k by rounding only, so both paths land on it to 1e-12.
    monkeypatch.setattr(tempbounds, "_MAX_ITERS", 0)
    resource, target = _resource(64), _target(64, 2, 3)
    reports = _solve(monkeypatch, ONE_BY_ONE, resource, target)
    reports_vec = _solve(monkeypatch, VECTOR, resource, target)
    for heating, report, report_vec in zip((False, True), reports, reports_vec):
        _assert_same(report, report_vec)
        h, beta = _mirror(target, heating)
        sign = -1.0 if heating else 1.0
        searched = 0
        for k, b, alpha in report.per_condition:
            if not b.is_finite or b.value == target.beta:
                continue
            goal = math.log(alpha) - math.log1p(-alpha)
            lo, hi, at_lo, at_hi = _exact_bracket(h, beta, k, goal)
            secant = lo + (hi - lo) * (goal - at_lo) / (at_hi - at_lo)
            assert lo < sign * b.value < hi
            assert sign * b.value == pytest.approx(secant, rel=1e-12)
            searched += 1
        assert searched


@pytest.mark.filterwarnings("error")
def test_overflowing_probe_fails_alike(monkeypatch):
    # Condition 1 nears its limit ln(1/2) only once beta~ * 1e-300 is of
    # order 1, far past the last doubling; by then beta~ * 1e296 overflows.
    # The scalar path's NaN log-odds find no bracket, and so do the rows.
    energies = (0.0,) * 3 + tuple(np.logspace(-300, 290, 18).tolist()) + (1e296,) * 3
    resource = validate_state((0.6, 0.3, 0.1), (0.2, 0.3, 0.5))
    target = GibbsContext(energies, 1.0)
    for threshold in (ONE_BY_ONE, VECTOR):
        _force(monkeypatch, threshold)
        with pytest.raises(BisectionError, match="condition k=1$"):
            beta_max(resource, target)


@pytest.mark.parametrize("E", [1e-36, 1e-50, 1e-300])
def test_roots_past_old_doubling_cap(monkeypatch, E):
    # The roots lie far past beta + 2^119, where the doubling used to stop;
    # it now runs to the end of the float range. On the levels (0, E, 2E),
    # L_k(x) is L_k(x E) on (0, 1, 2), so each root is the one on (0, 1, 2)
    # at beta = E, over E. The qubit (0, E), which `beta_max` and `beta_min`
    # take in closed form, is searched the same way.
    resource = validate_state((0.9, 0.1), (0.5, 0.5))
    boundary = compute_elbows(resource)
    bounds = qubit_beta_bounds(resource, E, 1.0)
    assert bounds[0].value > 2.0**119
    target = GibbsContext((0.0, E, 2.0 * E), 1.0)
    scaled = _solve(monkeypatch, ONE_BY_ONE, resource, GibbsContext((0.0, 1.0, 2.0), E))
    for threshold in (ONE_BY_ONE, VECTOR):
        for report, reference in zip(_solve(monkeypatch, threshold, resource, target), scaled):
            assert len(report.per_condition) == 2
            for (_, b, _), (_, b_ref, _) in zip(
                report.per_condition, reference.per_condition
            ):
                assert abs(b.value) > 2.0**119
                assert b.value == pytest.approx(b_ref.value / E, rel=1e-12)
        qubit = GibbsContext((0.0, E), 1.0)
        for heating, bound in zip((False, True), bounds):
            ((_, b, _),) = tempbounds._searched_conditions(boundary, qubit, heating)
            assert b.value == pytest.approx(bound.value, rel=1e-12)


# ------------------------------------------------------- the sweep's brackets
#
# Both the exact L_k (`_log_odds`) and a sweep's L_k sum at most d weights,
# each of whose exponents -x h_i is rounded to within eps |x| max|h_i|, and
# each of the at most d additions of a running sum (or of a log-sum-exp
# accumulation, whose partial values are at most |x| max|h_i| + ln d in
# size) adds one rounding of eps relative. Each value is therefore within
# eps d (1 + |x| (|h_0| + |h_{d-1}|)) of L_k; the sweep and the exact value
# differ by at most twice that. On this ladder the largest difference seen
# is 0.15 of one such unit.


def _bound(h, x):
    scale = 1.0 + abs(x) * (abs(h[0]) + abs(h[-1]))
    return 2.0 * sys.float_info.epsilon * len(h) * scale


def _open_rows(monkeypatch, resource, target, heating):
    """(h, beta, ks, goals, starts) of the open conditions, as the scalar
    path hands them to `_brackets`."""
    seen = []
    real = tempbounds._brackets

    def spy(sweep, h, beta, ks, goals, starts):
        seen.append((h, beta, list(ks), list(goals), list(starts)))
        return real(sweep, h, beta, ks, goals, starts)

    _force(monkeypatch, ONE_BY_ONE)
    monkeypatch.setattr(tempbounds, "_brackets", spy)
    (beta_min if heating else beta_max)(resource, target)
    monkeypatch.setattr(tempbounds, "_brackets", real)
    return seen[0] if seen else None


def _near_limit_rows(h, beta):
    """Rows just below the degenerate limit ln(k / (g - k)) of L_k, k < g for
    g ground levels, whose roots sit where L_k has all but flattened."""
    g = h.count(h[0])
    rows = []
    for k in range(1, g):
        for delta in (1e-6, 1e-10):
            goal = math.log(k / (g - k)) - delta
            start, _ = tempbounds._log_odds(h[:k], h[k:], beta)
            if start < goal:
                rows.append((k, goal, start))
    return rows


def _check_brackets(h, beta, ks, goals, starts):
    """Both sweeps' brackets and secant starts against the exact doubling,
    row by row."""
    h_array = np.array(h)
    forms = (
        (tempbounds._sweep, h),
        (tempbounds._sweep_array, h_array - h_array[0]),
    )
    brackets = [
        tempbounds._brackets(sweep, hs, beta, ks, goals, starts) for sweep, hs in forms
    ]
    for (sweep, hs), found in zip(forms, brackets):
        swept_at = functools.lru_cache(maxsize=None)(lambda x: sweep(hs, x))
        for r, (k, goal) in enumerate(zip(ks, goals)):
            exact = _exact_bracket(h, beta, k, goal)
            lo, hi, start = found[r]
            at_lo = starts[r] if lo == beta else swept_at(lo)[k - 1]
            at_hi = swept_at(hi)[k - 1]
            assert at_lo < goal <= at_hi
            secant = lo + (hi - lo) * ((goal - at_lo) / (at_hi - at_lo))
            assert start == (secant if lo < secant < hi else 0.5 * (lo + hi))
            x, offset = beta, 1.0
            while x < max(hi, exact[1]):  # every probe either bracket passed
                x = beta + offset
                swept = swept_at(x)[k - 1]
                value, _ = tempbounds._log_odds(h[:k], h[k:], x)
                assert abs(swept - value) <= _bound(h, x)
                if (swept >= goal) != (value >= goal):  # the brackets may differ
                    assert abs(value - goal) <= _bound(h, x)
                offset *= 2.0
    return brackets


@pytest.mark.parametrize("heating", [False, True], ids=["cool", "heat"])
@pytest.mark.parametrize("n", RESOURCE_LEVELS)
@pytest.mark.parametrize("ground, top", DEGENERACIES)
@pytest.mark.parametrize("levels", LEVELS)
def test_sweep_brackets_match_exact(monkeypatch, levels, ground, top, n, heating):
    target = _target(levels, ground, top)
    rows = _open_rows(monkeypatch, _resource(n), target, heating)
    h, beta = _mirror(target, heating)
    ks, goals, starts = ([], [], []) if rows is None else rows[2:]
    for k, goal, start in _near_limit_rows(h, beta):
        ks, goals, starts = ks + [k], goals + [goal], starts + [start]
    if ks:
        _check_brackets(h, beta, ks, goals, starts)


def test_sweep_brackets_at_the_degenerate_limit(monkeypatch):
    # ROADMAP item 11's pair: alpha_1 sits 1e-10 below the limit 1/2 of a
    # doubly degenerate ground, so L_1 nears ln(1) where its root lies.
    target, delta = GibbsContext((0.0, 0.0, 1.0), 1.0), 1e-10
    g = gibbs_vector(target.energies, 1.0).entries
    resource = validate_state((0.5 - delta, 0.4, 0.1 + delta), g)
    h, beta, ks, goals, starts = _open_rows(monkeypatch, resource, target, False)
    assert 1 in ks
    _check_brackets(h, beta, ks, goals, starts)


def test_heating_probes_cross_zero(monkeypatch):
    # Heating solves the mirror from -beta: with beta = 2.5 the probes
    # -1.5, -0.5 are negative and 1.5, 5.5, ... positive, and some rows are
    # bracketed across x = 0, where the scalar sweep turns to its own mirror
    # (back to the target's energies, at x > 0) for the negative probes.
    base = _target(64, 2, 3)
    target = GibbsContext(base.energies, 2.5)
    h, beta, ks, goals, starts = _open_rows(monkeypatch, _resource(64), target, True)
    for found in _check_brackets(h, beta, ks, goals, starts):
        assert any(lo < 0.0 < hi for lo, hi, _ in found)


# ------------------------------------------------------ the sweep's mirror
#
# At x < 0 `_sweep` runs its x >= 0 pass on the mirror, -h reversed at -x.
# Where beta (h_max - h_min) passes 709, a weight taken relative to the
# lowest level's would overflow at -beta: the heating conditions below are
# the cases that need the shift to the highest level that the mirror makes.

FAR_LEVELS = ((0.0, 400.0, 800.0), (0.0, 0.0, 800.0), (0.0, 300.0, 300.0, 900.0))
# beta_min of each against FAR_RESOURCE at beta = 1, as float.hex
FAR_BETA_MIN = ("0x1.ff8e6f4cd2092p-1", "0x1.ff8e6f4cd2092p-1", "0x1.ff9b0d999e410p-1")
FAR_RESOURCE = ((0.5, 0.3, 0.2), (0.6, 0.3, 0.1))


def _fsum_log_odds(h, x):
    """L_1 .. L_{d-1} at x from exact sums of each side's weights, each side
    shifted by its own largest exponent."""

    def log_sum(part):
        top = max(-x * e for e in part)
        return top + math.log(math.fsum(math.exp(-x * e - top) for e in part))

    return [log_sum(h[:k]) - log_sum(h[k:]) for k in range(1, len(h))]


@pytest.mark.parametrize(
    "energies, expected",
    list(zip(FAR_LEVELS, FAR_BETA_MIN)),
    ids=["-".join(f"{e:g}" for e in h) for h in FAR_LEVELS],
)
def test_heating_far_levels(monkeypatch, energies, expected):
    resource, target = validate_state(*FAR_RESOURCE), GibbsContext(energies, 1.0)
    for threshold in (ONE_BY_ONE, VECTOR):
        _force(monkeypatch, threshold)
        heat = beta_min(resource, target)
        assert heat.beta_min.value == pytest.approx(float.fromhex(expected), rel=1e-14)
        assert all(b.is_finite and b.value < 1.0 for _, b, _ in heat.per_condition)


def test_sweep_below_zero_matches_fsum():
    cases = [(h, -1.0) for h in FAR_LEVELS]
    for levels in (3, 4, 8, 16, 64, 400):
        for ground, top in DEGENERACIES:
            if ground + top <= levels:
                h = _target(levels, ground, top).energies
                cases += [(h, x) for x in (-0.3, -2.5, -40.0, -1e3)]
                mirror = tuple(-e for e in reversed(h))
                cases += [(mirror, x) for x in (-0.3, -40.0)]
    for h, x in cases:
        for swept, ref in zip(tempbounds._sweep(h, x), _fsum_log_odds(h, x), strict=True):
            assert abs(swept - ref) <= _bound(h, x)


# ------------------------------------------------- the sweep's k-level masses
#
# `_conditions` and `max_ground_overlap` read each mass at beta as
# y_k = sigma(L_k(beta)) from one sweep. A log-odds within
# eps d (1 + |x| (|h_0| + |h_{d-1}|)) of L_k (above) moves y_k by at most
# y_k (1 - y_k) times that, which is under y_k times it; the reference, exact
# sums of weights shifted by their largest exponent, and sigma itself round
# by less than that again, so the two lie within y_k `_bound`. On this
# ladder the largest difference seen is 0.06 of that (12 ulps, at d = 400).


def _fsum_masses(h, beta):
    """As in tests/test_tempbounds.py: exact sums of the shifted weights."""
    top = max(-beta * e for e in h)
    w = [math.exp(-beta * e - top) for e in h]
    total = math.fsum(w)
    return [math.fsum(w[:k]) / total for k in range(1, len(h))]


def test_sweep_masses_match_fsum():
    ladder = (2, 3, 4, 8, 16, _VECTOR_MIN_LEVELS - 1, _VECTOR_MIN_LEVELS, 64, 128, 400)
    for levels in ladder:
        for ground, top in DEGENERACIES:
            if ground + top > levels:
                continue
            target = _target(levels, ground, top)
            for heating in (False, True):
                h, beta = _mirror(target, heating)
                swept = [tempbounds._mass(L) for L in tempbounds._sweep(h, beta)]
                for y, ref in zip(swept, _fsum_masses(h, beta), strict=True):
                    assert abs(y - ref) <= _bound(h, beta) * ref


# ----------------------------------------------------------- the flat rows
#
# `_log_odds_rows` evaluates every open row from one flat array; against
# `_log_odds` row by row its value lies within `_bound`, since both sum at
# most d weights whose exponents round as above. Each slope is a difference
# of two weighted means of energies, mean = sum w_i h_i / sum w_i. With
# H = |h_0| + |h_{d-1}|, which is at least every |h_i| and the span, an
# exponent -x h_i minus its shift rounds by at most 2 eps |x| H and exp by
# eps, so each weight is within eps (1 + 2 |x| H) relative, which moves a
# mean by at most twice that times the span; the two sums of at most d terms
# round by d eps relative to sum w_i |h_i| <= H sum w_i and to sum w_i, each
# moving the mean by d eps H. Each mean is thus within
# eps H (2 d + 2 + 4 |x| H) <= 6 eps d H (1 + |x| H) = 3 H `_bound` of its
# value, a slope within twice that, and two evaluations within 12 H `_bound`.
# On this ladder the largest differences seen are 0.02 of the value's bound
# and 0.002 of the slope's.


def _far_energies(levels):
    """Energies from 0 to 1e296, degenerate at both ends, as in
    test_overflowing_probe_fails_alike."""
    middle = np.logspace(-300, 290, levels - 6).tolist()
    return (0.0,) * 3 + tuple(middle) + (1e296,) * 3


FLAT_XS = (-2.5, -0.3, 0.0, 0.7, 3.0)  # heating rows cross 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rows", ["one", "all"])
@pytest.mark.parametrize("far", [False, True], ids=["near", "far"])
@pytest.mark.parametrize("levels", (_VECTOR_MIN_LEVELS, 64, 400))
def test_flat_rows_match_log_odds(levels, far, rows):
    h = _far_energies(levels) if far else _target(levels, 3, 2).energies
    if rows == "one":  # K = 1: each k and x alone
        cases = [([k], [x]) for k in (1, 3, levels // 2, levels - 1) for x in FLAT_XS]
    else:  # K = d - 1: every k, the xs in turn
        ks = list(range(1, levels))
        cases = [(ks, [FLAT_XS[(k + j) % len(FLAT_XS)] for k in ks]) for j in (0, 1)]
    h_array, scale = np.array(h), abs(h[0]) + abs(h[-1])
    for ks, xs in cases:
        cuts, sizes = tempbounds._layout(np.array(ks), levels)
        flat = np.tile(h_array, len(ks))
        values, slopes = tempbounds._log_odds_rows(flat, np.array(xs), cuts, sizes)
        for k, x, value, slope in zip(ks, xs, values.tolist(), slopes.tolist()):
            exact_value, exact_slope = tempbounds._log_odds(h[:k], h[k:], x)
            assert abs(value - exact_value) <= _bound(h, x)
            assert abs(slope - exact_slope) <= 12.0 * scale * _bound(h, x)
