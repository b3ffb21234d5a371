"""End-to-end acceptance suite.

Each test prints exactly one `criterion NN ...: PASS/FAIL` line (run with
`pytest -s` to see them) and asserts the same verdict, including the stated
runtime budgets.
"""

import math
import time

import numpy as np

from athermal import (
    ExtendedBeta,
    GibbsContext,
    beta_max,
    beta_min,
    compute_elbows,
    alpha_at,
    construct_gap_example,
    convertible_via_monotones,
    cooling_monotone,
    fa_point,
    gap_membership,
    gap_set,
    heating_monotone,
    lp_feasible,
    max_ground_overlap,
    qubit_beta_bounds,
    qubit_energy_change,
    relatively_majorizes,
    validate_state,
)
from athermal.tempbounds import _searched_conditions
from athermal.thermo import gibbs_vector


def _report(num: int, label: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {label}: {verdict}{suffix}")
    assert ok, f"criterion {num:02d} {label} failed{suffix}"


def _random_state(rng, dim):
    r = rng.dirichlet(np.ones(dim))
    g = rng.dirichlet(np.ones(dim)) + 1e-3
    return validate_state(r, g / g.sum())


def test_criterion_01_closed_form_matches_solver():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        resource = _random_state(rng, 2)
        beta = float(rng.uniform(1e-3, 3.0))
        E = float(rng.uniform(1e-3, 5.0))
        bmax, bmin = qubit_beta_bounds(resource, E, beta)
        # the general root search itself: beta_max and beta_min take the
        # closed form on a 2-level target
        boundary = compute_elbows(resource)
        ctx = GibbsContext((0.0, E), beta)
        gmax = min(b for _, b, _ in _searched_conditions(boundary, ctx, heating=False))
        gmin = max(b for _, b, _ in _searched_conditions(boundary, ctx, heating=True))
        if bmax.is_finite != gmax.is_finite or bmin.is_finite != gmin.is_finite:
            ok = False
            break
        if bmax.is_finite and not math.isclose(
            bmax.value, gmax.value, rel_tol=1e-9, abs_tol=1e-12
        ):
            ok = False
            break
        if bmin.is_finite and not math.isclose(
            bmin.value, gmin.value, rel_tol=1e-9, abs_tol=1e-12
        ):
            ok = False
            break
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(1, "closed-form qubit bounds vs general solver", ok, f"{elapsed:.1f}s")


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    checked = 0
    agreements = 0
    while checked < 500:
        src = _random_state(rng, int(rng.integers(2, 6)))
        tgt = _random_state(rng, int(rng.integers(2, 6)))
        src_b = compute_elbows(src)
        tgt_b = compute_elbows(tgt)
        # skip marginal instances: clearance below 1e-6 at an interior elbow
        if any(
            abs(alpha_at(src_b, y) - x) < 1e-6 for x, y in tgt_b.interior()
        ):
            continue
        geo = relatively_majorizes(src, tgt)
        lp = lp_feasible(src.r, src.g, tgt.r, tgt.g, tol=1e-7).feasible
        agreements += geo == lp
        checked += 1
    elapsed = time.perf_counter() - start
    ok = agreements == 500 and elapsed < 30.0
    _report(2, "LP oracle equivalence", ok, f"{agreements}/500, {elapsed:.1f}s")


def test_criterion_03_critical_energy_completeness():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    checked = 0
    agreements = 0
    while checked < 1000:
        src = _random_state(rng, int(rng.integers(2, 7)))
        tgt = _random_state(rng, int(rng.integers(2, 7)))
        if any(
            abs(y - 0.5) < 1e-6 for _, y in compute_elbows(tgt).interior()
        ):
            continue
        agreements += convertible_via_monotones(src, tgt, 1.0) == (
            relatively_majorizes(src, tgt)
        )
        checked += 1
    elapsed = time.perf_counter() - start
    ok = agreements == 1000 and elapsed < 10.0
    _report(
        3, "finite critical-energy decision completeness", ok,
        f"{agreements}/1000, {elapsed:.1f}s",
    )


def test_criterion_04_free_state_fixed_points():
    rng = np.random.default_rng(404)
    ok = True
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        g = rng.dirichlet(np.ones(dim)) + 1e-3
        free = validate_state(g / g.sum(), g / g.sum())
        beta = float(rng.uniform(0.1, 3.0))
        E = float(rng.uniform(0.1, 4.0))

        ctx = GibbsContext((0.0, E), beta)
        ok &= beta_max(free, ctx).beta_max == ExtendedBeta.finite(beta)
        ok &= beta_min(free, ctx).beta_min == ExtendedBeta.finite(beta)
        ok &= cooling_monotone(free, beta, E) == 0.0
        ok &= heating_monotone(free, beta, E) == 0.0
        ok &= gap_set(free, beta, beta * 1.7, e_max=6.0, n_grid=500).is_empty
        ok &= gap_set(free, beta, beta * 0.4, e_max=6.0, n_grid=500).is_empty
    # overlap fixed point, including a degenerate ground space
    for energies, d in (((0.0, 1.0, 2.5), 1), ((0.0, 0.0, 1.0), 2)):
        ctx = GibbsContext(energies, 1.0)
        gA = gibbs_vector(energies, 1.0).entries
        free = validate_state(gA, gA)
        ok &= abs(max_ground_overlap(free, ctx, d) - d * gA[0]) <= 1e-12
    _report(4, "free-state fixed points are exact", ok)


def test_criterion_05_figure_noninterval_gap_set():
    resource = validate_state((0.2, 0.8), (0.045, 0.955))
    out = gap_set(resource, 1.0, 0.5, e_max=10.0)
    ok = len(out.intervals) >= 2
    # in/out/in membership witnesses straddling the reported gap boundary
    if ok:
        lo_iv, hi_iv = out.intervals[0], out.intervals[1]
        witnesses = (
            0.5 * (lo_iv.lo + lo_iv.hi),
            0.5 * (lo_iv.hi + hi_iv.lo),
            0.5 * (hi_iv.lo + hi_iv.hi),
        )
        pattern = [gap_membership(resource, 1.0, 0.5, E) for E in witnesses]
        ok = pattern == [True, False, True]
        detail = f"{len(out.intervals)} intervals, pattern in/out/in"
    else:
        detail = f"{len(out.intervals)} intervals"
    _report(5, "reference two-level state gives a non-interval gap set", ok, detail)


def test_criterion_06_curve_anchors_and_limits():
    ok = all(fa_point(a, 1.0) == (0.5, 0.5) for a in (-2.0, 0.0, 0.5, 2.0))
    w = 1e-10
    limits = {2.0: (1.0, 1.0), 0.5: (0.0, 0.0), 0.0: (0.5, 0.0), -1.0: (1.0, 0.0)}
    for a, (lx, ly) in limits.items():
        x, y = fa_point(a, w)
        # the heating abscissa approaches its limit only like w^a; at
        # w = 1e-10 and a = 1/2 the analytic distance is sqrt(w) = 1e-5
        tol_x = 1.01e-5 if a == 0.5 else 1e-6
        ok = ok and abs(x - lx) <= tol_x and abs(y - ly) <= 1e-6
    _report(6, "elbow-curve anchor values and limits", ok)


def test_criterion_07_noninterval_construction():
    ok = True
    details = []
    for a in (0.3, 0.5, 0.7, 2.0, 3.0):
        start = time.perf_counter()
        resource = construct_gap_example(a)
        out = gap_set(resource, 1.0, a, n_grid=20_000)
        elapsed = time.perf_counter() - start
        ok = ok and len(out.intervals) >= 2 and elapsed < 5.0
        details.append(f"a={a}: {len(out.intervals)} ivs {elapsed:.1f}s")
    _report(7, "explicit non-interval construction", ok, "; ".join(details))


def test_criterion_08_monotonicity_under_processing():
    rng = np.random.default_rng(808)
    beta = 1.0
    gaps = np.linspace(0.1, 4.0, 20)
    target = GibbsContext((0.0, 0.8, 1.7), beta)
    worst = 0.0
    for _ in range(1000):
        dim = int(rng.integers(2, 5))
        state = _random_state(rng, dim)
        M = rng.dirichlet(np.ones(dim), size=dim).T  # column-stochastic
        mapped = validate_state(
            M @ np.asarray(state.r.entries), M @ np.asarray(state.g.entries)
        )
        for E in gaps:
            c0 = cooling_monotone(state, beta, float(E))
            c1 = cooling_monotone(mapped, beta, float(E))
            h0 = heating_monotone(state, beta, float(E))
            h1 = heating_monotone(mapped, beta, float(E))
            if math.isfinite(c1):
                worst = max(worst, c1 - (c0 if math.isfinite(c0) else math.inf))
            elif math.isfinite(c0):
                worst = math.inf
            if math.isfinite(h1):
                worst = max(worst, h1 - (h0 if math.isfinite(h0) else math.inf))
            elif math.isfinite(h0):
                worst = math.inf
        o0 = max_ground_overlap(state, target)
        o1 = max_ground_overlap(mapped, target)
        worst = max(worst, o1 - o0)
    ok = worst <= 1e-10
    _report(8, "monotones never increase under processing", ok, f"worst {worst:.2e}")


def test_criterion_09_feasibility_bracketing():
    rng = np.random.default_rng(909)
    checked = 0
    ok = True
    while checked < 100 and ok:
        resource = _random_state(rng, int(rng.integers(2, 5)))
        beta = float(rng.uniform(0.3, 2.0))
        E = float(rng.uniform(0.3, 3.0))
        bmax, bmin = qubit_beta_bounds(resource, E, beta)
        if not (bmax.is_finite and bmin.is_finite):
            continue
        if bmax.value - beta < 1e-5 or beta - bmin.value < 1e-5:
            continue  # margin too thin to straddle with 1e-6 probes
        energies = (0.0, E)
        g = gibbs_vector(energies, beta).entries

        def reachable(bt):
            return relatively_majorizes(
                resource, validate_state(gibbs_vector(energies, bt).entries, g)
            )

        ok = (
            reachable(bmax.value - 1e-6)
            and not reachable(bmax.value + 1e-6)
            and reachable(bmin.value + 1e-6)
            and not reachable(bmin.value - 1e-6)
        )
        checked += 1
    _report(9, "extremal temperatures are tight", ok, f"{checked}/100")


def test_criterion_10_energy_change_profile():
    grid = np.linspace(0.01, 30.0, 100)
    values = [qubit_energy_change(float(E), 1.0, 2.0) for E in grid]
    all_negative = all(v < 0.0 for v in values)
    small_at_ends = abs(values[0]) < 1e-3 and abs(values[-1]) < 1e-3
    interior_min = 0 < int(np.argmin(values)) < len(values) - 1
    ok = all_negative and small_at_ends and interior_min
    _report(
        10, "cooling energy change dips at an interior gap", ok,
        f"min at E={grid[int(np.argmin(values))]:.2f}",
    )
