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
            A, b = constraints(src.r, src.g, tgt.r, tgt.g)
            optimum, x = oracle._phase_one(A, b)
            out = lp_feasible(src.r, src.g, tgt.r, tgt.g)
            # a degenerate basic variable may round to about -1e-17
            assert x.min() >= -1e-15
            if out.feasible:
                assert optimum <= oracle.DEFAULT_TOL
                assert out.max_violation == np.max(np.abs(A @ x - b))
            else:
                assert out.max_violation == optimum

    def test_pivot_limit(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MAX_PIVOTS", 1)
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
