import math
import warnings

import numpy as np
import pytest

from athermal import (
    DensityMatrix,
    GibbsContext,
    gibbs_vector,
    log_partition,
    to_quasiclassical,
)
from athermal.core import validate_state
from athermal.errors import DimensionMismatch, InvalidDensityMatrix, NonFiniteBeta


class TestGibbsVector:
    def test_qubit_gap_ln4(self):
        g = gibbs_vector((0.0, math.log(4.0)), 1.0)
        assert g.entries == pytest.approx((0.8, 0.2), abs=1e-15)

    def test_infinite_temperature_limit(self):
        g = gibbs_vector((0.0, 1.0, 2.0), 1e-300)
        assert g.entries == pytest.approx((1 / 3, 1 / 3, 1 / 3), abs=1e-12)

    def test_negative_beta_inverts_populations(self):
        g = gibbs_vector((0.0, 1.0), -2.0)
        assert g.entries[1] > g.entries[0]

    def test_large_energies_no_overflow(self):
        g = gibbs_vector((0.0, 5000.0), 1.0)
        assert g.entries[0] == pytest.approx(1.0)
        assert g.entries[1] >= 0.0

    def test_shift_invariance(self):
        a = gibbs_vector((0.0, 1.0, 3.0), 0.7)
        b = gibbs_vector((10.0, 11.0, 13.0), 0.7)
        assert a.entries == pytest.approx(b.entries, rel=1e-14)

    def test_rejects_non_finite_beta(self):
        with pytest.raises(NonFiniteBeta):
            gibbs_vector((0.0, 1.0), math.inf)


class TestLogPartition:
    @pytest.mark.parametrize("beta", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(NonFiniteBeta):
            log_partition((0.0, 1.0), beta)

    def test_two_level(self):
        assert log_partition((0.0, math.log(4.0)), 1.0) == pytest.approx(
            math.log(1.25), rel=1e-14
        )

    def test_consistent_with_gibbs_vector(self):
        energies = (0.3, 1.1, 2.7)
        beta = 1.9
        lz = log_partition(energies, beta)
        g = gibbs_vector(energies, beta)
        manual = [math.exp(-beta * h - lz) for h in energies]
        assert g.entries == pytest.approx(manual, rel=1e-13)


class TestDensityMatrix:
    def test_accepts_valid(self):
        rho = DensityMatrix(np.array([[0.7, 0.1], [0.1, 0.3]]))
        assert rho.dim == 2

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[0.5, 0.4], [0.1, 0.5]]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[1.2, 0.0], [0.0, -0.2]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            DensityMatrix(np.ones((2, 3)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("part", ["real", "imag"])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
    def test_rejects_non_finite_entry(self, value, part, where):
        """A NaN compares False with every tolerance, and an infinity makes
        the checks compute NaN: both are refused up front, with no warning."""
        m = np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)
        entry = complex(value, 0.0) if part == "real" else complex(0.0, value)
        if where == "diagonal":
            m[1, 1] += entry
        else:  # the conjugate pair, so the matrix is otherwise Hermitian
            m[0, 1] += entry
            m[1, 0] += entry.conjugate()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidDensityMatrix, match="non-finite"):
                DensityMatrix(m)

    def test_matrix_is_read_only(self):
        rho = DensityMatrix(np.array([[0.5, 0.0], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0

    def test_caller_array_is_not_aliased(self):
        """The validated matrix is a copy: the caller's complex array stays
        writeable, and a view taken before validation cannot change it."""
        m = np.eye(2, dtype=complex) / 2
        view = m.view()
        rho = DensityMatrix(m)
        assert m.flags.writeable
        view[0, 0] = view[1, 1] = 0.9
        assert np.diag(rho.matrix).tolist() == [0.5, 0.5]


def _random_density_matrix(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real)


class TestToQuasiclassical:
    def test_diagonal_input_passthrough(self):
        ctx = GibbsContext((0.0, math.log(4.0)), 1.0)
        rho = DensityMatrix(np.diag([0.9, 0.1]).astype(complex))
        state = to_quasiclassical(rho, ctx)
        assert state.r.entries == pytest.approx((0.9, 0.1), abs=1e-15)
        assert state.g.entries == pytest.approx((0.8, 0.2), abs=1e-15)

    def test_negative_diagonal_within_psd_tol_reads_zero(self):
        # DensityMatrix accepts an eigenvalue down to -PSD_TOL; the pinched
        # diagonal entry is at least that eigenvalue.
        ctx = GibbsContext((0.0, math.log(4.0)), 1.0)
        rho = DensityMatrix(np.diag([1.0 + 1e-11, -1e-11]).astype(complex))
        state = to_quasiclassical(rho, ctx)
        assert state.r.entries == (1.0, 0.0)

    def test_negative_diagonal_at_both_tolerances(self):
        # Trace 1 + 0.9e-9 and eleven entries of -0.9e-10: DensityMatrix
        # accepts it, and reading the negative entries as 0 without taking
        # their mass elsewhere would sum to 1 + 1.89e-9.
        n = 12
        diagonal = np.full(n, -0.9e-10)
        diagonal[0] = 1.0 + 0.9e-9 + (n - 1) * 0.9e-10
        ctx = GibbsContext(tuple(float(i) for i in range(n)), 1.0)
        state = to_quasiclassical(DensityMatrix(np.diag(diagonal).astype(complex)), ctx)
        assert state.r.entries == (1.0,) + (0.0,) * (n - 1)

    def test_coherences_dropped_in_nondegenerate_basis(self):
        ctx = GibbsContext((0.0, 1.0), 1.0)
        rho = DensityMatrix(np.array([[0.7, 0.3], [0.3, 0.3]], dtype=complex))
        state = to_quasiclassical(rho, ctx)
        assert state.r.entries == pytest.approx((0.7, 0.3), abs=1e-15)

    def test_populations_are_pinched_diagonal(self):
        """Pinching keeps the diagonal: the state is `validate_state` of rho's
        diagonal and the Gibbs vector's entries, the rule a populations file
        loads by, whatever rho's coherences inside or across degenerate
        blocks. One fixed 6-level context, then 600 seeded ones of 2-8 levels,
        energies unsorted and drawn with repeats from fewer levels, so most
        have degenerate blocks."""
        rng = np.random.default_rng(7)
        ctx = GibbsContext((0.0, 0.5, 0.5, 1.0, 1.0, 1.0), 1.3)
        for i in range(620):
            n = ctx.dim
            if i >= 20:
                n = int(rng.integers(2, 9))
                levels = rng.normal(scale=3.0, size=int(rng.integers(1, n + 1)))
                beta = math.exp(rng.uniform(-3.0, 2.0))
                ctx = GibbsContext(tuple(rng.choice(levels, size=n)), beta)
            g = gibbs_vector(ctx.energies, ctx.beta)
            rho = _random_density_matrix(rng, n)
            assert np.all(rho.matrix != 0.0)
            expected = validate_state(list(np.diag(rho.matrix).real), list(g.entries))
            assert to_quasiclassical(rho, ctx) == expected

    def test_dim_mismatch(self):
        ctx = GibbsContext((0.0, 1.0), 1.0)
        with pytest.raises(DimensionMismatch):
            to_quasiclassical(DensityMatrix(np.eye(3) / 3.0), ctx)
