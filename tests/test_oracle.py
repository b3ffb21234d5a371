import numpy as np
import pytest

from athermal import lp_feasible, oracle, relatively_majorizes, validate_state
from athermal.core import ProbabilityVector
from athermal.errors import BisectionError, DimensionMismatch


def _pv(entries):
    return ProbabilityVector(tuple(entries))


def random_state(rng, dim):
    r = rng.dirichlet(np.ones(dim))
    g = rng.dirichlet(np.ones(dim)) + 1e-3
    return validate_state(r, g / g.sum())


def constraints(p, r, q, s):
    """Reference (A, b) of lp_feasible, built entry by entry: E[i, j] is
    variable i*n + j; rows Ep = q, Er = s, then unit column sums."""
    n, m = p.dim, q.dim
    A = np.zeros((2 * m + n, m * n))
    for i in range(m):
        for j in range(n):
            A[i, i * n + j] = p.entries[j]
            A[m + i, i * n + j] = r.entries[j]
            A[2 * m + j, i * n + j] = 1.0
    return A, np.array([*q.entries, *s.entries, *[1.0] * n])


def agreeing_instances(rng, count):
    """Seeded (source, target) pairs whose verdict is clear-cut: a random
    state pushed through a random column-stochastic channel (feasible), or
    a state and its partial thermalisation swapped (infeasible)."""
    for k in range(count):
        n = int(rng.integers(2, 13))
        src = random_state(rng, n)
        p, r = np.array(src.r.entries), np.array(src.g.entries)
        if k % 2 == 0:
            m = int(rng.integers(2, 13))
            E = rng.dirichlet(np.ones(m), size=n).T  # columns sum to 1
            yield src, validate_state(E @ p, E @ r), True
        else:
            lam = rng.uniform(0.2, 0.8)
            yield validate_state(lam * p + (1 - lam) * r, r), src, False


def check_vertex(src, tgt):
    """The phase-1 vertex from lp_feasible's start is >= 0 up to rounding, and
    lp_feasible reports its residual against the reference A, b (feasible) or
    the phase-1 optimum."""
    A, b = constraints(src.r, src.g, tgt.r, tgt.g)
    optimum, x = oracle._phase_one(*oracle._start(src.r, src.g, tgt.r, tgt.g))
    out = lp_feasible(src.r, src.g, tgt.r, tgt.g)
    # a degenerate basic variable may round to about -1e-17
    assert x.min() >= -1e-15
    x = x[: A.shape[1]]  # E; the artificials come last
    if out.feasible:
        assert optimum <= oracle.DEFAULT_TOL
        assert out.max_violation == abs(A @ x - b).max()
    else:
        assert out.max_violation == optimum
    return out


def degenerate_instances(rng, count):
    """Seeded pairs where half of the source and of the target populations
    are zero, so many right-hand sides are 0 and many pivots make no
    progress: a source through a channel that keeps its support off the
    target's empty levels (feasible), or an unrelated target."""
    for k in range(count):
        n, m = (int(d) for d in rng.integers(2, 17, size=2))
        p = np.zeros(n)
        support = rng.permutation(n)[: n - n // 2]
        p[support] = rng.dirichlet(np.ones(support.size))
        r = rng.dirichlet(np.ones(n)) + 1e-3
        src = validate_state(p, r / r.sum())
        if k % 2 == 0:
            E = rng.dirichlet(np.ones(m), size=n).T
            empty = rng.permutation(m)[: m // 2]
            E[np.ix_(empty, support)] = 0.0
            E /= E.sum(axis=0)
            tgt = validate_state(E @ p, E @ np.array(src.g.entries))
        else:
            q = np.zeros(m)
            full = rng.permutation(m)[: m - m // 2]
            q[full] = rng.dirichlet(np.ones(full.size))
            s = rng.dirichlet(np.ones(m)) + 1e-3
            tgt = validate_state(q, s / s.sum())
        yield src, tgt, k % 2 == 0


def extreme_instances(rng, count, masses):
    """Seeded pairs of 2-12 levels whose populations and Gibbs masses come
    from `masses(rng, dim)`: a state through a random column-stochastic
    channel (feasible), a partial thermalisation and its state swapped
    (infeasible), or an unrelated pair (None)."""
    for k in range(count):
        n, m = (int(d) for d in rng.integers(2, 13, size=2))
        src = validate_state(*masses(rng, n))
        p, g = np.array(src.r.entries), np.array(src.g.entries)
        if k % 3 == 0:
            E = rng.dirichlet(np.ones(m), size=n).T
            yield src, validate_state(E @ p, E @ g), True
        elif k % 3 == 1:
            lam = rng.uniform(0.2, 0.8)
            yield validate_state(lam * p + (1 - lam) * g, g), src, False
        else:
            yield src, validate_state(*masses(rng, m)), None


def cold_gibbs(rng, dim):
    """Flat Dirichlet populations on the Gibbs vector of energies in [0, 3)
    at a beta up to 30: Gibbs masses down to about 1e-39."""
    e = rng.uniform(0.0, 3.0, dim)
    w = np.exp(-rng.uniform(0.0, 30.0) * (e - e.min()))
    return rng.dirichlet(np.ones(dim)), w / w.sum()


def small_masses(rng, dim):
    """Populations and Gibbs masses with one dominant level each; every other
    mass is 10^U(-12, -2) of it."""

    def draw():
        w = 10.0 ** rng.uniform(-12.0, -2.0, dim)
        w[rng.integers(dim)] = 1.0
        return w / w.sum()

    return draw(), draw()


class TestLpFeasible:
    def test_identity_instance(self):
        p = _pv((0.7, 0.3))
        r = _pv((0.6, 0.4))
        out = lp_feasible(p, r, p, r)
        assert out.feasible
        assert out.max_violation < 1e-9

    def test_map_to_gibbs_always_feasible(self):
        # E = r 1^T maps every vector to r
        p = _pv((0.9, 0.1))
        r = _pv((0.6, 0.4))
        out = lp_feasible(p, r, r, r)
        assert out.feasible

    def test_infeasible_reports_positive_violation(self):
        p = _pv((0.6, 0.4))
        r = _pv((0.6, 0.4))
        q = _pv((0.9, 0.1))
        out = lp_feasible(p, r, q, r)
        assert not out.feasible
        assert out.max_violation > 1e-7

    def test_dimension_reduction_allowed(self):
        p = _pv((0.5, 0.3, 0.2))
        r = _pv((0.4, 0.4, 0.2))
        out = lp_feasible(p, r, _pv((0.8, 0.2)), _pv((0.6, 0.4)))
        assert isinstance(out.feasible, bool)

    def test_rejects_mismatched_pair_dims(self):
        with pytest.raises(DimensionMismatch):
            lp_feasible(_pv((0.5, 0.5)), _pv((0.4, 0.3, 0.3)), _pv((1.0,)), _pv((1.0,)))

    def test_rejects_mismatched_image_dims(self):
        p = _pv((0.5, 0.5))
        with pytest.raises(DimensionMismatch, match="dim\\(q\\)"):
            lp_feasible(p, p, _pv((1.0,)), _pv((0.5, 0.5)))

    def test_rejects_bad_tol(self):
        p = _pv((0.5, 0.5))
        with pytest.raises(ValueError):
            lp_feasible(p, p, p, p, tol=0.0)

    def test_agrees_with_geometry(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(2, 5))
            src = random_state(rng, n)
            tgt = random_state(rng, m)
            geo = relatively_majorizes(src, tgt)
            lp = lp_feasible(src.r, src.g, tgt.r, tgt.g).feasible
            assert geo == lp

    def test_explicit_gibbs_stochastic_witness(self):
        # push p through a fixed column-stochastic E that also fixes r
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = 3
            E = rng.dirichlet(np.ones(n), size=n).T  # columns sum to 1
            r = rng.dirichlet(np.ones(n)) + 1e-3
            r = r / r.sum()
            p = rng.dirichlet(np.ones(n))
            q = E @ p
            s = E @ r
            out = lp_feasible(_pv(tuple(p)), _pv(tuple(r)), _pv(tuple(q)), _pv(tuple(s)))
            assert out.feasible

    def test_gibbs_source_fully_degenerate(self):
        # p = r: the source carries no athermality, every Gibbs target is
        # reachable (E = s 1^T), and every pivot of phase 1 is degenerate
        rng = np.random.default_rng(11)
        for n, m in [(2, 2), (3, 5), (6, 6), (8, 3), (12, 12)]:
            r = _pv(rng.dirichlet(np.ones(n)))
            s = _pv(rng.dirichlet(np.ones(m)))
            out = lp_feasible(r, r, s, s)
            assert out.feasible
            assert out.max_violation < 1e-12

    def test_tied_entries(self):
        p, r = (0.4, 0.4, 0.1, 0.1), (0.3, 0.3, 0.2, 0.2)
        mixed = tuple(0.5 * a + 0.5 * b for a, b in zip(p, r))
        src, tgt = validate_state(p, r), validate_state(mixed, r)
        for a, b, expected in [(src, tgt, True), (tgt, src, False), (src, src, True)]:
            out = lp_feasible(a.r, a.g, b.r, b.g)
            assert out.feasible is expected
            assert relatively_majorizes(a, b) is expected

    def test_one_level(self):
        one = _pv((1.0,))
        out = lp_feasible(one, one, one, one)
        assert out.feasible
        assert out.max_violation == 0.0

    def test_vertex_is_nonnegative_and_residual_is_reported(self):
        rng = np.random.default_rng(17)
        for src, tgt, _ in agreeing_instances(rng, 20):
            check_vertex(src, tgt)

    def test_half_empty_levels_agree_with_geometry(self):
        rng = np.random.default_rng(31)
        for src, tgt, channel in degenerate_instances(rng, 200):
            lp = lp_feasible(src.r, src.g, tgt.r, tgt.g).feasible
            assert lp is relatively_majorizes(src, tgt)
            if channel:
                assert lp

    @pytest.mark.parametrize("n", [24, 32])
    def test_large_instances(self, n):
        rng = np.random.default_rng(n)
        src = random_state(rng, n)
        p, r = np.array(src.r.entries), np.array(src.g.entries)
        E = rng.dirichlet(np.ones(n), size=n).T
        lam = rng.uniform(0.2, 0.8)
        thermalized = validate_state(lam * p + (1 - lam) * r, r)
        for a, b, expected in [
            (src, validate_state(E @ p, E @ r), True),
            (thermalized, src, False),
        ]:
            assert check_vertex(a, b).feasible is expected
            assert relatively_majorizes(a, b) is expected

    def test_cycling_example_ends_by_blands_rule(self):
        # Chvatal's example (Linear Programming, 1983, ch. 3), which cycles
        # under the largest-coefficient rule: its three rows with b = (0, 0,
        # 1), and a fourth row that makes the column sums, the phase-1
        # prices, equal to its objective. Bland's rule takes over after four
        # pivots in a row without progress and ends the cycle.
        rows = np.array([[0.5, -5.5, -2.5, 9.0], [0.5, -1.5, -0.5, 1.0], [1.0, 0.0, 0.0, 0.0]])
        prices = np.array([10.0, -57.0, -9.0, -24.0])
        A = np.vstack([rows, prices - rows.sum(axis=0)])
        b = np.array([0.0, 0.0, 1.0, 1.0])
        # [A | I | b] on every artificial, over the phase-1 objective with the
        # artificials priced out
        t = np.zeros((5, 9))
        t[:-1, :4], t[:-1, 4:-1], t[:-1, -1] = A, np.eye(4), b
        t[-1, :4], t[-1, -1] = A.sum(axis=0), b.sum()
        optimum, x = oracle._phase_one(t, np.arange(4, 8))
        x = x[:4]
        assert optimum == pytest.approx(1.5, abs=1e-12)  # HiGHS: 1.5
        assert x.min() >= 0.0
        assert np.sum(b - A @ x) == pytest.approx(optimum, abs=1e-12)

    def test_unbounded_under_dantzigs_rule(self):
        # [constraint row | rhs] over the objective row, x0 basic: the
        # largest reduced cost enters x1, whose column no row blocks
        t = np.array([[1.0, -1.0, 1.0], [0.0, 1.0, 0.0]])
        with pytest.raises(BisectionError, match="unbounded"):
            oracle._phase_one(t, np.array([0]))

    def test_unbounded_under_blands_rule(self):
        # x1 enters first at rhs 0: one pivot without progress, n_rows of
        # them for this one row, so Bland's rule enters x2 next, the smallest
        # improving column, which no row blocks
        t = np.array([[1.0, 1.0, -1.0, 0.0], [0.0, 2.0, 1.0, 0.0]])
        with pytest.raises(BisectionError, match="unbounded"):
            oracle._phase_one(t, np.array([0]))

    @pytest.mark.parametrize("masses, seed", [(cold_gibbs, 30), (small_masses, 12)])
    def test_feasible_verdicts_meet_the_tolerance_at_extreme_masses(self, masses, seed):
        # a feasible verdict's vertex meets every constraint within tol, and
        # every channel image is feasible; a reversed partial thermalisation
        # is infeasible wherever its populations are not small (the absolute
        # tol decides small-mass ones)
        for src, tgt, expected in extreme_instances(np.random.default_rng(seed), 600, masses):
            out = lp_feasible(src.r, src.g, tgt.r, tgt.g)
            if out.feasible:
                assert out.max_violation <= oracle.DEFAULT_TOL
            if expected or masses is cold_gibbs and expected is False:
                assert out.feasible is expected

    def test_cold_24_level_pairs(self):
        # Gibbs masses from 1 down to about 1e-39 on 24 levels: rows whose
        # rhs is near 0 offer pivots down to _PIVOT_TOL, and taking them blew
        # the tableau up (pivot limit, or optima of 1e25)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            g = np.exp(-30.0 * np.concatenate(([0.0, 3.0], rng.uniform(0.0, 3.0, 22))))
            src = validate_state(rng.dirichlet(np.ones(24)), g / g.sum())
            p, g = np.array(src.r.entries), np.array(src.g.entries)
            E = rng.dirichlet(np.ones(24), size=24).T
            lam = rng.uniform(0.2, 0.8)
            image = validate_state(E @ p, E @ g)
            assert lp_feasible(src.r, src.g, image.r, image.g).feasible
            thermalized = validate_state(lam * p + (1 - lam) * g, g)
            out = lp_feasible(thermalized.r, thermalized.g, src.r, src.g)
            # phase 1 starts at most at sum(q + s + p + r) = 4 and never climbs
            assert not out.feasible and out.max_violation <= 4.0

    def test_an_optimum_within_tol_needs_its_vertex_within_tol(self, monkeypatch):
        # an optimum of 0 whose vertex E = 0 misses every column sum by 1, as
        # a tableau that lost accuracy can report: that certifies nothing
        monkeypatch.setattr(oracle, "_phase_one", lambda t, basis: (0.0, np.zeros(t.shape[1] - 1)))
        p, r = _pv((0.6, 0.4)), _pv((0.5, 0.5))
        out = lp_feasible(p, r, p, r)
        assert not out.feasible
        assert out.max_violation == 1.0

    def test_pivot_limit(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_PIVOTS", 1)
        # the start is E = I, which maps p to itself, not to r: it needs a pivot
        p, r = _pv((0.6, 0.4)), _pv((0.5, 0.5))
        with pytest.raises(BisectionError, match="pivot limit"):
            lp_feasible(p, r, r, r)


def test_agrees_with_highs():
    """Third opinion: geometry, this simplex and scipy's HiGHS on the same
    A, b and x >= 0 give one verdict on seeded clear-cut instances."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(29)
    for src, tgt, expected in agreeing_instances(rng, 60):
        A, b = constraints(src.r, src.g, tgt.r, tgt.g)
        highs = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b, method="highs")
        assert highs.status in (0, 2), highs.message  # optimal or infeasible
        assert (highs.status == 0) is expected
        assert lp_feasible(src.r, src.g, tgt.r, tgt.g).feasible is expected
        assert relatively_majorizes(src, tgt) is expected


def test_half_empty_levels_agree_with_highs():
    """The degenerate instances above, against HiGHS as well."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(31)
    for src, tgt, _ in degenerate_instances(rng, 200):
        A, b = constraints(src.r, src.g, tgt.r, tgt.g)
        highs = linprog(np.zeros(A.shape[1]), A_eq=A, b_eq=b, method="highs")
        assert highs.status in (0, 2), highs.message
        assert (highs.status == 0) is lp_feasible(src.r, src.g, tgt.r, tgt.g).feasible
