"""The size-switched root search of `beta_max`/`beta_min`: one condition at a
time below `tempbounds._VECTOR_MIN_LEVELS` target levels, all open conditions
in one numpy pass from there up.

Each case solves the same resource and target twice, once with the switch
forced onto each path. Both paths share the settled conditions and every
alpha_k, so k, the tags and the alphas must be identical; the roots come
from the same steps on differently summed log-odds, so finite beta~ must
agree to 1e-12 relative (1e-12 absolute below |beta~| = 1).
"""

import math
import sys

import numpy as np
import pytest

from athermal import (
    ExtendedBeta,
    GibbsContext,
    beta_max,
    beta_min,
    compute_elbows,
    validate_state,
)
from athermal import tempbounds
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

    def roots(energies, beta, ks, goals):
        calls.append(len(energies))
        return [beta + 1.0] * len(ks)

    monkeypatch.setattr(tempbounds, "_cooling_roots", roots)
    for levels in (_VECTOR_MIN_LEVELS - 1, _VECTOR_MIN_LEVELS):
        beta_max(_resource(64), _target(levels, 1, 1))
    assert calls == [_VECTOR_MIN_LEVELS]


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


def test_no_newton_step_returns_upper_probe(monkeypatch):
    # With no step allowed, each root is the doubling's upper probe
    # beta + 2^j, which both paths pick by the same comparison.
    monkeypatch.setattr(tempbounds, "_MAX_ITERS", 0)
    resource, target = _resource(64), _target(64, 2, 3)
    reports = _solve(monkeypatch, ONE_BY_ONE, resource, target)
    reports_vec = _solve(monkeypatch, VECTOR, resource, target)
    for report, report_vec in zip(reports, reports_vec):
        assert report_vec.per_condition == report.per_condition
        offsets = [
            math.log2(abs(b.value - target.beta))
            for _, b, _ in report.per_condition
            if b.is_finite and b.value != target.beta
        ]
        assert offsets
        assert offsets == pytest.approx([round(x) for x in offsets], abs=1e-9)


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
