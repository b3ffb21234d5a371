"""Gibbs vectors, partition functions, and the quasi-classical reduction.

A density matrix is written in the basis of its `GibbsContext`'s sorted
energies: entry (i, j) pairs `energies[i]` with `energies[j]`. numpy is
imported only by the density-matrix code that builds arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .core import AthermalityState, GibbsContext, ProbabilityVector, validate_state
from .errors import DimensionMismatch, InvalidDensityMatrix, NonFiniteBeta

if TYPE_CHECKING:
    import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9
PSD_TOL = 1e-10


def shifted_weights(
    energies: Sequence[float], beta: float
) -> tuple[float, list[float]]:
    """The shift s = max_i(-beta*h_i) and the weights exp(-beta*h_i - s).

    The largest weight is exactly 1, so their sum lies in [1, n] and never
    underflows: sum_i exp(-beta*h_i) = exp(s) * sum(weights).
    """
    neg_beta = -beta
    # max_i(-beta*h_i) sits at an end of the energies, since rounding is
    # monotone; the weights then take one pass.
    shift = neg_beta * (min(energies) if beta >= 0.0 else max(energies))
    return shift, [math.exp(neg_beta * h - shift) for h in energies]


def gibbs_vector(energies: Sequence[float], beta: float) -> ProbabilityVector:
    """Thermal occupation vector exp(-beta*h_i)/Z, computed in log domain.

    Negative beta is allowed (population-inverted target states).
    """
    if not math.isfinite(beta):
        raise NonFiniteBeta(f"beta must be finite, got {beta!r}")
    _, weights = shifted_weights(energies, beta)
    total = math.fsum(weights)
    return ProbabilityVector([w / total for w in weights])


def log_partition(energies: Sequence[float], beta: float) -> float:
    """ln Z(beta) via the shifted log-sum-exp."""
    if not math.isfinite(beta):
        raise NonFiniteBeta(f"beta must be finite, got {beta!r}")
    shift, weights = shifted_weights(energies, beta)
    return shift + math.log(math.fsum(weights))


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix (Hermitian, unit trace, PSD within tolerance)."""

    matrix: np.ndarray

    def __post_init__(self):
        import numpy as np

        m = np.array(self.matrix, dtype=complex)  # a copy: no caller view writes it
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():  # NaN would pass every tolerance below
            raise InvalidDensityMatrix("matrix has a non-finite entry")
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_TOL:
            raise InvalidDensityMatrix("matrix is not Hermitian within tolerance")
        tr = np.trace(m).real
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidDensityMatrix(f"trace {float(tr)!r} not within {TRACE_TOL} of 1")
        if np.min(np.linalg.eigvalsh(m)) < -PSD_TOL:
            raise InvalidDensityMatrix(
                "matrix is not positive semidefinite within tolerance"
            )
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def to_quasiclassical(rho: DensityMatrix, gibbs: GibbsContext) -> AthermalityState:
    """`validate_state` of rho's pinched populations and of the entries of
    `gibbs_vector(gibbs.energies, gibbs.beta)`: the rule that loads every state.

    rho is written in the basis of `gibbs.energies`. Pinching, the dephasing
    onto the energy eigenspaces, keeps rho's diagonal, which is read off rho
    itself. An entry is at least the smallest eigenvalue, so at least -PSD_TOL:
    a negative one is read as 0, its mass moved to the largest entry to keep the trace.
    """
    import numpy as np

    populations = np.diag(rho.matrix).real
    negative = np.minimum(populations, 0.0)
    populations = populations - negative
    populations[populations.argmax()] += negative.sum()
    g = gibbs_vector(gibbs.energies, gibbs.beta).entries
    return validate_state(populations.tolist(), g)
