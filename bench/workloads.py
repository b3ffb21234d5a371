"""The four benchmark workloads: seeded raw inputs, timed queries and their
correctness checks.

A workload is one pass: a fixed list of queries in a seeded, interleaved
order. A query's ``run`` receives only raw generated numbers, so input
validation stays on the timed path, and it calls the library through module
attributes of the ``athermal`` package, so a tracer that rebinds functions
there sees every call. A query's ``check`` judges the result afterwards,
outside the timed region.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import athermal as at
import athermal.oracle  # noqa: F401  (DEFAULT_TOL)

WORKLOADS = ("decide", "solve", "qubit-scan", "cli")

# Queries per pass, per size class. The shares put p50 and p90 of a pass's
# latencies well inside one latency band each, away from the jumps between
# bands, and give every class enough queries that a pass averages over its
# seeded inputs: decide p50 in the n=32 band (72% of queries), p90 in the
# n=2048 band (the top 19%); solve p50 among d=16 (3-6 ms, 38%-67%, just
# above n=m=8 at 1-7 ms), p90 among d=64 (the top 24%); qubit-scan p50
# among the scalar kinds (60%), p90 among the 20 000-point scans (the top
# 20%).
DECIDE_PAIRS = {32: 60, 256: 10, 2048: 20}  # each pair is asked of both methods
# Distinct levels per ladder, cycled over the pairs of a class: 0 means a
# plain ladder, k a degenerate one with n // k levels and tied r/g ratios.
DECIDE_LADDERS = (0, 4, 0, 16)
MASS_SCALE_PAIRS = 16
SOLVE_TEMPERATURE = {2: 5, 16: 30, 64: 25}
SOLVE_LP = {4: 25, 8: 10, 12: 10}
QUBIT_SCALAR_ROUNDS = 16  # each round asks the scalar kinds once per dim 2..4
QUBIT_BOUNDS_EVERY = 4  # ...and skips the bounds triple every 4th round
QUBIT_GAP_SETS = {10_000: 12, 20_000: 48}
CLI_GRID = 10_000
# Seeded fixture sets per pass, each asked every one of 12 invocations. In
# this process oracle (twice per set) and eset take 3-5 ms and the other
# nine 2-3 ms, so the slow three hold the top quarter of queries (p90) and
# the rest the bottom three quarters (p50).
CLI_FIXTURE_SETS = 10

# Tolerance of acceptance criterion 01: closed-form qubit bounds vs solver.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# The absolute DOMINATION_SLACK of the decision methods and gap_membership: a
# reverse pair whose target lies above the source by less than this is called
# convertible, and gap_membership accepts a curve point this far outside the
# boundary while the gap_set scan does not.
DOMINATION_SLACK = 1e-12
# The false-negative pair reported for COLLINEARITY_TOL, verbatim.
REPRO_SOURCE = ((3e-8, 2e-8, 1 - 5e-8), (1e-8, 1e-8, 1 - 2e-8))
REPRO_TARGET = ((2.8e-8, 1 - 2.8e-8), (1e-8, 1 - 1e-8))


@dataclass
class Query:
    kind: str
    size: int
    raw: tuple
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    slice: str = "main"
    validate: Callable[[], Any] = lambda: None  # raw inputs to validated states
    # True for a failed result that a documented defect explains; every
    # other failure is unexpected.
    known_defect: Callable[[Any], bool] | None = None
    spawn: Callable[[], Any] | None = None  # the same CLI query as a subprocess


@dataclass
class Workload:
    name: str
    queries: list[Query]
    warmup: list[Query]
    cleanup: Callable[[], None] = field(default=lambda: None)

    def classes(self) -> dict[str, float]:
        """Share of each (kind, size class) among the queries of one pass."""
        counts: dict[str, int] = {}
        for q in self.queries:
            key = f"{q.slice}:{q.kind}:{q.size}"
            counts[key] = counts.get(key, 0) + 1
        total = len(self.queries)
        return {k: round(v / total, 4) for k, v in sorted(counts.items())}


def new_gibbs_context(energies, beta):
    """Validate a raw (energies, beta) pair; traced as ``core.GibbsContext``."""
    return at.GibbsContext(tuple(energies), beta)


def _once(fn):
    """Memoize a zero-argument reference computation of a check."""
    cache = []

    def get():
        if not cache:
            cache.append(fn())
        return cache[0]

    return get


def _same_beta(a: at.ExtendedBeta, b: at.ExtendedBeta) -> bool:
    if a.kind != b.kind:
        return False
    return not a.is_finite or math.isclose(
        a.value, b.value, rel_tol=REL_TOL, abs_tol=ABS_TOL
    )


def _finish(name: str, rng, queries: list[Query], cleanup=None) -> Workload:
    """Shuffle one pass and pick the warm-up queries."""
    shuffled = [queries[int(i)] for i in rng.permutation(len(queries))]
    warmup: dict[str, Query] = {}
    for q in sorted(shuffled, key=lambda q: q.size):
        warmup.setdefault(q.kind, q)
    return Workload(name, shuffled, list(warmup.values()), cleanup or (lambda: None))


# --------------------------------------------------------------------- decide


def _ladder(rng, n: int, levels: int):
    """Energies, beta, Gibbs vector and level index of an n-level ladder.

    With ``levels < n`` the ladder is degenerate: every one of its distinct
    levels is used at least once.
    """
    beta = float(rng.uniform(0.5, 2.0))
    if levels < n:
        which = np.concatenate(
            [np.arange(levels), rng.integers(0, levels, n - levels)]
        )
        energies = np.sort(rng.uniform(0.0, 4.0, levels))[which]
    else:
        which = np.arange(n)
        energies = rng.uniform(0.0, 4.0, n)
    w = np.exp(-beta * (energies - energies.min()))
    return energies, beta, w / w.sum(), which


def _populations(rng, g, which):
    """Random populations whose r/g ratio is tied within each level."""
    levels = int(which.max()) + 1
    block_mass = rng.dirichlet(np.ones(levels))
    g_block = np.bincount(which, weights=g, minlength=levels)
    return block_mass[which] * g / g_block[which]


def _decision_pair(queries, size, slice_, src, tgt, beta, expected, defect=False):
    """Append one pair as two queries, one per decision method.

    Each method must return the verdict of the construction, so the two also
    agree. With ``defect`` the opposite verdict is a documented defect of the
    absolute tolerances (ROADMAP item 2).
    """
    raw = (tuple(map(tuple, src)), tuple(map(tuple, tgt)), beta)

    def geometry():
        return at.relatively_majorizes(
            at.validate_state(*src), at.validate_state(*tgt)
        )

    def monotones():
        return at.convertible_via_monotones(
            at.validate_state(*src), at.validate_state(*tgt), beta
        )

    def validate():
        return at.validate_state(*src), at.validate_state(*tgt)

    for kind, run in (("relatively_majorizes", geometry),
                      ("convertible_via_monotones", monotones)):
        queries.append(Query(kind, size, raw, run, lambda v: v is expected,
                             slice_, validate,
                             (lambda v: v is (not expected)) if defect else None))


def build_decide(rng) -> Workload:
    queries: list[Query] = []
    for n, pairs in DECIDE_PAIRS.items():
        for i in range(pairs):
            forward = i % 2 == 0
            k = DECIDE_LADDERS[(i // 2) % len(DECIDE_LADDERS)]
            _, beta, g, which = _ladder(rng, n, max(2, n // k) if k else n)
            r = _populations(rng, g, which)
            lam = rng.uniform(0.2, 0.8)
            t = lam * r + (1.0 - lam) * g
            src, tgt = (r, t) if forward else (t, r)
            _decision_pair(
                queries, n, "main",
                (src.tolist(), g.tolist()), (tgt.tolist(), g.tolist()),
                beta, forward,
            )
    # Masses outside the dominant level run log-uniformly down to 1e-12.
    # A reverse pair whose violation is below DOMINATION_SLACK may be called
    # convertible; every other pair must pass.
    n = min(DECIDE_PAIRS)
    for i in range(MASS_SCALE_PAIRS):
        forward = i % 2 == 0
        s = 10.0 ** rng.uniform(-12.0, -3.0)
        g_small = rng.dirichlet(np.ones(n - 1)) * s * 10.0 ** rng.uniform(-0.5, 0.5)
        r_small = rng.dirichlet(np.ones(n - 1)) * s
        g = np.append(g_small, 1.0 - g_small.sum())
        r = np.append(r_small, 1.0 - r_small.sum())
        lam = rng.uniform(0.2, 0.8)
        t = lam * r + (1.0 - lam) * g
        src, tgt = (r, t) if forward else (t, r)
        _decision_pair(
            queries, n, "mass_scale",
            (src.tolist(), g.tolist()), (tgt.tolist(), g.tolist()),
            1.0, forward,
            defect=not forward and _violation(src, tgt, g) < DOMINATION_SLACK,
        )
    # A false negative of COLLINEARITY_TOL.
    _decision_pair(
        queries, len(REPRO_SOURCE[0]), "mass_scale",
        [list(v) for v in REPRO_SOURCE], [list(v) for v in REPRO_TARGET],
        1.0, True, defect=True,
    )
    return _finish("decide", rng, queries)


def _violation(r_src, r_tgt, g) -> float:
    """Largest amount by which the target's boundary lies above the source's
    at the target's elbows, from plain prefix sums (no slack, no merging)."""
    def boundary(r):
        order = np.argsort(-(r / g), kind="stable")
        return (np.concatenate([[0.0], np.cumsum(r[order])]),
                np.concatenate([[0.0], np.cumsum(g[order])]))

    sx, sy = boundary(r_src)
    tx, ty = boundary(r_tgt)
    return float(np.max(tx - np.interp(ty, sy, sx)))


# ---------------------------------------------------------------------- solve


def _temperature_query(rng, resource, d: int, i: int) -> Query:
    (r, g), beta = resource
    heating = i % 2 == 1
    if d == 2:
        energies = [0.0, float(rng.uniform(0.2, 3.0))]
    else:
        energies = rng.uniform(0.0, 3.0, d)
        ground = (1, 1, 2, 3)[i % 4]  # some targets have a degenerate ground
        energies[np.argsort(energies)[:ground]] = 0.0
        energies = rng.permutation(energies).tolist()  # validation sorts them
    kind = "beta_min" if heating else "beta_max"

    def run():
        state = at.validate_state(r, g)
        report = getattr(at, kind)(state, new_gibbs_context(energies, beta))
        return report.beta_min if heating else report.beta_max

    def check(value):
        background = at.ExtendedBeta.finite(beta)
        if not (value <= background if heating else value >= background):
            return False
        if d > 2:
            return True
        bmax, bmin = at.qubit_beta_bounds(
            at.validate_state(r, g), energies[1], beta
        )
        return _same_beta(value, bmin if heating else bmax)

    def validate():
        return at.validate_state(r, g), new_gibbs_context(energies, beta)

    return Query(kind, d, (r, g, beta, tuple(energies)), run, check,
                 validate=validate)


def _lp_query(rng, n: int, feasible: bool) -> Query:
    p = rng.dirichlet(np.ones(n))
    gp = rng.dirichlet(np.ones(n))
    if feasible:
        channel = rng.dirichlet(np.ones(n), size=n).T  # column-stochastic
        source, target = (p, gp), (channel @ p, channel @ gp)
    else:
        lam = rng.uniform(0.2, 0.8)
        source, target = (lam * p + (1.0 - lam) * gp, gp), (p, gp)
    source = tuple(v.tolist() for v in source)
    target = tuple(v.tolist() for v in target)

    def run():
        src = at.validate_state(*source)
        tgt = at.validate_state(*target)
        return at.lp_feasible(src.r, src.g, tgt.r, tgt.g).feasible

    def validate():
        return at.validate_state(*source), at.validate_state(*target)

    def check(value):
        return value is feasible and at.relatively_majorizes(*validate()) is feasible

    return Query("lp_feasible", n, (source, target), run, check,
                 validate=validate)


def build_solve(rng) -> Workload:
    queries: list[Query] = []
    for d, count in SOLVE_TEMPERATURE.items():
        for i in range(count):
            _, beta, g, which = _ladder(rng, 64, 64)
            resource = ((_populations(rng, g, which).tolist(), g.tolist()), beta)
            queries.append(_temperature_query(rng, resource, d, i))
    for n, count in SOLVE_LP.items():
        for i in range(count):
            queries.append(_lp_query(rng, n, feasible=i % 2 == 0))
    return _finish("solve", rng, queries)


# ----------------------------------------------------------------- qubit-scan


def _raw_resource(rng, dim: int):
    """Energies, beta and populations of a random dim-level resource."""
    energies = np.sort(rng.uniform(0.0, 3.0, dim))
    energies[0] = 0.0
    beta = float(rng.uniform(0.5, 2.0))
    return energies.tolist(), beta, rng.dirichlet(np.ones(dim)).tolist()


def _raw_density_matrix(rng, dim: int):
    """Energies with a degenerate top pair, beta, and a full-rank density
    matrix as nested [re, im] rows; pinching keeps only the coherence inside
    that pair."""
    energies = np.sort(rng.uniform(0.5, 3.0, dim))
    energies[0] = 0.0
    energies[-1] = energies[-2]
    beta = float(rng.uniform(0.5, 2.0))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    return energies.tolist(), beta, [[[z.real, z.imag] for z in row] for row in rho]


def _resource_state(energies, beta, populations):
    """Raw resource numbers to a validated state, through the thermo layer."""
    if isinstance(populations[0], list):  # a density matrix
        m = np.array([[complex(re, im) for re, im in row] for row in populations])
        return at.to_quasiclassical(
            at.DensityMatrix(m), new_gibbs_context(energies, beta)
        )
    return at.validate_state(populations, at.gibbs_vector(energies, beta).entries)


def _interval_verdicts(intervals, e_values, margin=1e-6):
    """Membership of each E in the union of intervals, or None near an end."""
    out = []
    for E in e_values:
        verdict = False
        for iv in intervals:
            if min(abs(E - iv.lo), abs(E - iv.hi)) <= margin * max(1.0, E):
                verdict = None
                break
            if iv.lo < E < iv.hi:
                verdict = True
        out.append(verdict)
    return out


def _disagreements(state, beta, beta_tilde, intervals, e_values) -> list[float]:
    """Probes where gap_membership contradicts the intervals of a scan."""
    return [E for E, expected in zip(e_values, _interval_verdicts(intervals, e_values))
            if expected is not None
            and at.gap_membership(state, beta, beta_tilde, E) is not expected]


def _within_slack(state, beta, beta_tilde, E) -> bool:
    """The curve point of gap E lies within DOMINATION_SLACK of the boundary."""
    x, y = at.fa_point(beta_tilde / beta, math.exp(-beta * E))
    return abs(at.alpha_at(at.compute_elbows(state), y) - x) <= DOMINATION_SLACK


def _gap_set_checks(beta, beta_tilde, min_intervals):
    """Check and known defect of a (state, gap set) result: membership is
    probed in every interval and gap; a disagreement is the known defect only
    where the curve lies within DOMINATION_SLACK of the boundary."""
    def off(value):
        state, gs = value
        e_max = -math.log(at.esets.DEFAULT_W_MIN) / beta
        return _disagreements(state, beta, beta_tilde, gs.intervals,
                              _probe_gaps(gs.intervals, e_max))

    def check(value):
        return len(value[1].intervals) >= min_intervals and not off(value)

    def known(value):
        wrong = off(value)
        return (len(value[1].intervals) >= min_intervals and bool(wrong)
                and all(_within_slack(value[0], beta, beta_tilde, E) for E in wrong))

    return check, known


def _probe_gaps(intervals, e_max: float) -> list[float]:
    """Midpoints of every interval and of every gap around them."""
    ends = [0.0] + [e for iv in intervals for e in (iv.lo, iv.hi)] + [e_max]
    return [0.5 * (a + b) for a, b in zip(ends, ends[1:]) if b > a]


def _gap_set_query(rng, grid: int, witness: bool) -> Query:
    if witness:
        a = float(rng.choice([rng.uniform(0.25, 0.85), rng.uniform(1.25, 5.0)]))
        raw = (a, grid)

        def run():
            state = at.construct_gap_example(a)
            return state, at.gap_set(state, 1.0, a, None, grid)

        check, known = _gap_set_checks(1.0, a, min_intervals=2)
        return Query("construct_gap_example+gap_set", grid, raw, run, check,
                     known_defect=known)

    energies, beta, pops = _raw_resource(rng, 2)
    beta_tilde = beta * float(rng.uniform(0.3, 3.0))
    raw = (energies, beta, pops, beta_tilde, grid)

    def run():
        state = _resource_state(energies, beta, pops)
        return state, at.gap_set(state, beta, beta_tilde, None, grid)

    check, known = _gap_set_checks(beta, beta_tilde, min_intervals=0)
    return Query("gap_set", grid, raw, run, check,
                 validate=lambda: _resource_state(energies, beta, pops),
                 known_defect=known)


def _scalar_queries(rng, dim: int, with_matrix: bool, with_bounds: bool) -> list[Query]:
    """One query of each scalar kind on fresh dim-level resources."""
    out = []
    raw_res = (_raw_density_matrix if with_matrix else _raw_resource)(rng, dim)
    energies, beta, pops = raw_res
    E = float(rng.uniform(0.1, 3.0))

    # gap_membership, checked against a scan of the same resource
    beta_tilde = beta * float(rng.uniform(0.3, 3.0))

    def membership():
        state = _resource_state(energies, beta, pops)
        return at.gap_membership(state, beta, beta_tilde, E)

    @_once
    def membership_expected():
        state = _resource_state(energies, beta, pops)
        return _interval_verdicts(at.gap_set(state, beta, beta_tilde).intervals, [E])[0]

    def membership_check(value):
        expected = membership_expected()
        return expected is None or value is expected

    def validate():
        return _resource_state(energies, beta, pops)

    out.append(Query("gap_membership", dim, (raw_res, beta_tilde, E),
                     membership, membership_check, validate=validate,
                     known_defect=lambda v: _within_slack(validate(), beta, beta_tilde, E)))

    # qubit_beta_bounds next to the general solver on the same 2-level target
    def bounds():
        state = _resource_state(energies, beta, pops)
        ctx = new_gibbs_context([0.0, E], beta)
        return (at.qubit_beta_bounds(state, E, beta),
                at.beta_max(state, ctx).beta_max,
                at.beta_min(state, ctx).beta_min)

    def bounds_check(value):
        (bmax, bmin), gmax, gmin = value
        return _same_beta(bmax, gmax) and _same_beta(bmin, gmin)

    if with_bounds:
        out.append(Query("qubit_beta_bounds+beta_max+beta_min", dim, (raw_res, E),
                         bounds, bounds_check, validate=validate))

    # cooling/heating monotones of the resource against a qubit target at E
    w = math.exp(-beta * E)
    qubit_g = [1.0 / (1.0 + w), w / (1.0 + w)]
    t_ground = float(rng.uniform(0.02, 0.98))
    target = ([t_ground, 1.0 - t_ground], qubit_g)

    def monotone_verdict():
        state = _resource_state(energies, beta, pops)
        tgt = at.validate_state(*target)
        return (at.cooling_monotone(state, beta, E)
                >= at.cooling_monotone(tgt, beta, E)
                and at.heating_monotone(state, beta, E)
                >= at.heating_monotone(tgt, beta, E))

    def monotone_check(value):
        state = _resource_state(energies, beta, pops)
        return value is at.relatively_majorizes(state, at.validate_state(*target))

    out.append(Query("cooling_monotone+heating_monotone", dim,
                     (raw_res, E, target), monotone_verdict, monotone_check,
                     validate=lambda: (validate(), at.validate_state(*target))))

    # critical energies of the resource taken as a target
    def critical():
        return at.critical_energies(_resource_state(energies, beta, pops), beta)

    def critical_check(crit):
        boundary = at.compute_elbows(_resource_state(energies, beta, pops))
        interior = boundary.interior()
        if len(crit.entries) + len(crit.degenerate_flags) != len(interior):
            return False
        for k, E_k, kind in crit.entries:
            y = interior[k - 1][1]
            if not (math.isfinite(E_k) and E_k > 0.0):
                return False
            if kind != ("cooling" if y > 0.5 else "heating"):
                return False
        return True

    out.append(Query("critical_energies", dim, raw_res, critical, critical_check,
                     validate=validate))
    return out


def build_qubit_scan(rng) -> Workload:
    queries: list[Query] = []
    for i in range(QUBIT_SCALAR_ROUNDS):
        for dim in (2, 3, 4):
            queries.extend(_scalar_queries(
                rng, dim, with_matrix=dim > 2 and i % 2 == 1,
                with_bounds=i % QUBIT_BOUNDS_EVERY != QUBIT_BOUNDS_EVERY - 1,
            ))
    for grid, count in QUBIT_GAP_SETS.items():
        for i in range(count):
            queries.append(_gap_set_query(rng, grid, witness=i % 2 == 0))
    return _finish("qubit-scan", rng, queries)


# ------------------------------------------------------------------------ cli


def _eb(value) -> Any:
    """A library value as the CLI writes it to JSON."""
    if isinstance(value, at.ExtendedBeta):
        return value.to_json()
    if value == math.inf:
        return "+inf"
    if value == -math.inf:
        return "-inf"
    return value


def _load_fixture(doc: dict):
    """A fixture document read the way a state file is documented to be."""
    ctx = at.GibbsContext(tuple(doc["energies"]), doc["beta"])
    g = at.gibbs_vector(ctx.energies, ctx.beta)
    if "populations" in doc:
        return at.validate_state(ctx.apply_permutation(doc["populations"]), g.entries), ctx
    if "density_matrix" in doc:
        m = np.array([[complex(re, im) for re, im in row] for row in doc["density_matrix"]])
        perm = list(ctx.permutation)
        return at.to_quasiclassical(at.DensityMatrix(m[np.ix_(perm, perm)]), ctx), ctx
    return at.validate_state(g.entries, g.entries), ctx


def _per_condition(report):
    return [{"k": k, "beta": _eb(b), "alpha": a} for k, b, a in report.per_condition]


def _first_witness(source, target, beta):
    for k, E_k, kind in at.critical_energies(target, beta).entries:
        mono = at.cooling_monotone if kind == "cooling" else at.heating_monotone
        lhs, rhs = mono(source, beta, E_k), mono(target, beta, E_k)
        if lhs < rhs:
            return {"E": E_k, "k": k, "kind": kind, "lhs": _eb(lhs), "rhs": _eb(rhs)}
    return None


def _cli_fixtures(rng) -> dict[str, dict]:
    """State documents for every subcommand, from raw seeded numbers."""
    def doc(energies, beta, populations=None):
        d = {"energies": list(energies), "beta": beta}
        if populations is not None:
            d["populations"] = list(populations)
        return d

    beta = float(rng.uniform(0.5, 2.0))
    dim = 6
    energies = rng.uniform(0.0, 3.0, dim)
    w = np.exp(-beta * energies)
    g = w / w.sum()
    r = rng.dirichlet(np.ones(dim))
    lam = rng.uniform(0.2, 0.8)
    t = lam * r + (1.0 - lam) * g
    e_dm, beta_dm, rho = _raw_density_matrix(rng, 4)
    qubit_e, qubit_beta, qubit_pops = _raw_resource(rng, 2)
    return {
        "resource": doc(energies, beta, r),
        "thermalized": doc(energies, beta, t),
        "target": doc(rng.uniform(0.0, 3.0, 4), beta),
        "matrix": {"energies": e_dm, "beta": beta_dm, "density_matrix": rho},
        "qubit": doc(qubit_e, qubit_beta, qubit_pops),
    }


def build_cli(rng) -> Workload:
    import athermal.cli  # noqa: F401  (queries call its run())

    root = os.path.join(os.getcwd(), ".bench_out")
    os.makedirs(root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="cli-", dir=root)
    queries = []
    for i in range(CLI_FIXTURE_SETS):
        directory = os.path.join(tmp, f"set{i}")
        os.makedirs(directory)
        fixtures, commands = _cli_commands(rng, directory)
        queries += [_cli_query(argv, expected, fixtures) for argv, expected in commands]
    workload = _finish("cli", rng, queries, cleanup=lambda: shutil.rmtree(tmp, True))
    # Every subcommand pays the same interpreter start-up: one subprocess
    # call puts it into set-up.
    cool = next(q for q in workload.queries if q.kind == "cool")
    workload.warmup.append(dataclasses.replace(cool, run=cool.spawn))
    return workload


def _cli_commands(rng, directory):
    """One seeded fixture set written to ``directory``, and every subcommand
    on it as (argv, expected result) pairs."""
    fixtures = json.loads(json.dumps(_cli_fixtures(rng)))  # as the CLI reads them
    paths = {}
    for name, doc in fixtures.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(doc, fh)
    state = {name: _load_fixture(doc) for name, doc in fixtures.items()}
    gaps = sorted(float(x) for x in rng.uniform(0.2, 3.0, 2))
    a_example = float(rng.uniform(0.25, 0.85))
    a_curve = float(rng.uniform(1.25, 5.0))
    qubit_beta_tilde = state["qubit"][1].beta * float(rng.uniform(0.3, 3.0))

    def expect_cool():
        report = at.beta_max(state["resource"][0], state["target"][1])
        return 0, {"beta": state["target"][1].beta, "beta_max": _eb(report.beta_max),
                   "per_condition": _per_condition(report)}

    def expect_heat():
        report = at.beta_min(state["resource"][0], state["target"][1])
        return 0, {"beta": state["target"][1].beta, "beta_min": _eb(report.beta_min),
                   "per_condition": _per_condition(report)}

    def expect_overlap():
        value = at.max_ground_overlap(state["resource"][0], state["target"][1], 1)
        return 0, {"ground_degeneracy": 1, "o_max": value}

    def expect_convert(src, tgt):
        def expected():
            source, (target, ctx) = state[src][0], state[tgt]
            verdict = at.convertible_via_monotones(source, target, ctx.beta)
            doc = {"convertible": verdict}
            if not verdict:
                doc["witness"] = _first_witness(source, target, ctx.beta)
            return (0 if verdict else 3), doc
        return expected

    def expect_oracle(src, tgt):
        def expected():
            source, target = state[src][0], state[tgt][0]
            res = at.lp_feasible(source.r, source.g, target.r, target.g,
                                 athermal.oracle.DEFAULT_TOL)
            doc = {"feasible": res.feasible, "max_violation": res.max_violation}
            return (0 if res.feasible else 3), doc
        return expected

    def expect_monotones():
        s, ctx = state["matrix"]
        return 0, {"beta": ctx.beta, "entries": [
            {"E": E, "cooling": _eb(at.cooling_monotone(s, ctx.beta, E)),
             "heating": _eb(at.heating_monotone(s, ctx.beta, E))} for E in gaps]}

    def expect_critical():
        s, ctx = state["resource"]
        crit = at.critical_energies(s, ctx.beta)
        return 0, {"beta": ctx.beta, "degenerate": list(crit.degenerate_flags),
                   "entries": [{"E": E, "k": k, "kind": kind} for k, E, kind in crit.entries]}

    def expect_eset():
        s, ctx = state["qubit"]
        res = at.gap_set(s, ctx.beta, qubit_beta_tilde, None, CLI_GRID)
        return 0, {"beta": ctx.beta, "beta_tilde": qubit_beta_tilde,
                   "intervals": [[iv.lo, iv.hi] for iv in res.intervals],
                   "closed": [[iv.lo_closed, iv.hi_closed] for iv in res.intervals],
                   "resolution": res.resolution}

    def expect_gap_example():
        s = at.construct_gap_example(a_example)
        g1, g2 = s.g.entries
        return 0, {"energies": [0.0, math.log(g1 / g2)], "beta": 1.0,
                   "populations": list(s.r.entries)}

    def expect_curve():
        n = 100
        return 0, {"a": a_curve, "points": [
            [i / n, *at.fa_point(a_curve, i / n)] for i in range(1, n + 1)]}

    p = paths
    commands = [
        (["cool", "-s", p["resource"], "-t", p["target"]], expect_cool),
        (["heat", "-s", p["resource"], "-t", p["target"]], expect_heat),
        (["overlap", "-s", p["resource"], "-t", p["target"]], expect_overlap),
        (["convert", "--from", p["resource"], "--to", p["thermalized"]],
         expect_convert("resource", "thermalized")),
        (["convert", "--from", p["thermalized"], "--to", p["resource"]],
         expect_convert("thermalized", "resource")),
        (["monotones", "-s", p["matrix"], "-E", repr(gaps[0]), "-E", repr(gaps[1])],
         expect_monotones),
        (["critical-energies", "-s", p["resource"]], expect_critical),
        (["eset", "-s", p["qubit"], "--beta-tilde", repr(qubit_beta_tilde),
          "--grid", str(CLI_GRID)], expect_eset),
        (["gap-example", "--a", repr(a_example)], expect_gap_example),
        (["oracle", "--from", p["resource"], "--to", p["thermalized"]],
         expect_oracle("resource", "thermalized")),
        (["oracle", "--from", p["thermalized"], "--to", p["resource"]],
         expect_oracle("thermalized", "resource")),
        (["curve", "--a", repr(a_curve), "--grid", "100"], expect_curve),
    ]
    return fixtures, commands


def _cli_query(argv, expected, fixtures) -> Query:
    """A CLI invocation, timed through ``athermal.cli.run`` in this process.

    Interpreter start-up is left to ``spawn``, which the traced run and the
    set-up use: as one subprocess per query the latency swung between about
    150 and 400 ms with the host's state, which no per-run statistic could
    steady.
    """
    expected = _once(expected)

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = athermal.cli.run(argv)
        return code, out.getvalue()

    def spawn():
        proc = subprocess.run(
            [sys.executable, "-m", "athermal.cli", *argv],
            capture_output=True, text=True, timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(value):
        code, stdout = value
        want_code, want_doc = expected()
        lines = stdout.splitlines()
        if code != want_code or len(lines) != 1:
            return False
        return json.loads(lines[0]) == json.loads(json.dumps(want_doc, sort_keys=True))

    # the raw inputs are the subcommand, its numbers and the fixtures it reads
    raw = (argv[0], tuple(a for a in argv if not a.startswith(os.sep)),
           json.dumps(fixtures, sort_keys=True))
    return Query(argv[0], 1, raw, run, check, spawn=spawn)


FACTORIES = {
    "decide": build_decide,
    "solve": build_solve,
    "qubit-scan": build_qubit_scan,
    "cli": build_cli,
}


def build(name: str, seed: int) -> Workload:
    """The workload's one-pass query list, from its seed."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    return FACTORIES[name](rng)
