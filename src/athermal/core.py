"""Validated domain types: probability vectors, Gibbs contexts, athermality
states, and inverse temperatures extended with the two infinite tags.

All types are immutable after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

from .errors import (
    AthermalError,
    DimensionMismatch,
    NegativeEntry,
    NonPositiveBeta,
    NonPositiveGap,
    NormalizationOutOfTolerance,
    RankDeficientGibbs,
)

NORMALIZATION_TOL = 1e-9

# Vectors of at least this many entries take the numpy path through the
# decision kernel: validation here and boundary building in `majorization`,
# whose decision methods follow the target boundary's form. Smaller ones
# stay in pure Python, where numpy's fixed cost per call loses. Time of one
# full query (validate 4 vectors, build 2 boundaries, compare), pure Python /
# numpy, median of interleaved runs, two runs averaged; plain ladders, 2-CPU
# x86-64 host, numpy 2.4:
#   n                            32   64   96  128  256  2048  20000
#   relatively_majorizes        0.5  0.8  1.0  1.3  1.6   3.3    4.6
#   convertible_via_monotones   0.7  1.1  1.4  1.8  2.5   4.8    6.8
# The first method breaks even near 100 and the second near 60; 100 keeps
# the n = 32 decide inputs and every dim <= 64 solver, scan and CLI input
# on the pure-Python path.
_NUMPY_MIN_DIM = 100


def _check_beta(beta: float) -> None:
    if not (math.isfinite(beta) and beta > 0.0):
        raise NonPositiveBeta(f"beta must be finite and > 0, got {beta!r}")


def _check_gap(E: float) -> None:
    if not (math.isfinite(E) and E > 0.0):
        raise NonPositiveGap(f"energy gap must be > 0, got {E!r}")


@dataclass(frozen=True)
class ProbabilityVector:
    """Probability vector, stored exactly renormalized."""

    entries: tuple[float, ...]

    def __post_init__(self):
        if len(self.entries) < 1:
            raise DimensionMismatch("probability vector must have dim >= 1")
        if len(self.entries) >= _NUMPY_MIN_DIM and self._validated_by_numpy():
            return
        for x in self.entries:
            if not math.isfinite(x):
                raise NegativeEntry(f"non-finite entry {x!r}")
            if x < 0.0:
                raise NegativeEntry(f"negative entry {x!r}")
        total = math.fsum(self.entries)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise NormalizationOutOfTolerance(
                f"entries sum to {total!r}, off by more than {NORMALIZATION_TOL}"
            )
        if total != 1.0:
            object.__setattr__(
                self, "entries", tuple(x / total for x in self.entries)
            )

    def _validated_by_numpy(self) -> bool:
        """The checks above as whole-array passes, for large vectors.

        False when any check fails (or an entry does not convert to float):
        the scalar loop then raises the same error, naming the same entry.
        """
        import numpy as np

        try:
            a = np.fromiter(self.entries, float, len(self.entries))
        except (TypeError, ValueError, OverflowError):
            return False
        if not (np.isfinite(a).all() and a.min() >= 0.0):
            return False
        total = math.fsum(self.entries)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            return False
        if total != 1.0:
            a /= total
            object.__setattr__(self, "entries", tuple(a.tolist()))
        a.flags.writeable = False
        self.__dict__["array"] = a  # seeds the cached property below
        return True

    @cached_property
    def array(self):
        """The entries as a read-only numpy array, converted once."""
        import numpy as np

        a = np.array(self.entries, dtype=float)
        a.flags.writeable = False
        return a

    @classmethod
    def from_raw(cls, raw: Sequence[float]) -> "ProbabilityVector":
        return cls(tuple(map(float, raw)))

    @property
    def dim(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class GibbsContext:
    """Sorted energy levels plus a positive inverse temperature.

    Energies are accepted in any order; they are sorted stably and the
    sorting permutation is retained so paired population lists can be
    reordered consistently (see :meth:`apply_permutation`).
    """

    energies: tuple[float, ...]
    beta: float
    permutation: tuple[int, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if len(self.energies) < 1:
            raise DimensionMismatch("at least one energy level required")
        for h in self.energies:
            if not math.isfinite(h):
                raise AthermalError(f"non-finite energy {h!r}")
        _check_beta(self.beta)
        order = sorted(range(len(self.energies)), key=lambda i: self.energies[i])
        object.__setattr__(self, "permutation", tuple(order))
        object.__setattr__(
            self, "energies", tuple(float(self.energies[i]) for i in order)
        )

    @property
    def dim(self) -> int:
        return len(self.energies)

    @property
    def is_degenerate(self) -> bool:
        return self.energies[0] == self.energies[-1]

    def ground_degeneracy(self) -> int:
        return sum(1 for h in self.energies if h == self.energies[0])

    def top_degeneracy(self) -> int:
        return sum(1 for h in self.energies if h == self.energies[-1])

    def apply_permutation(self, values: Sequence[float]) -> tuple[float, ...]:
        """Reorder a list paired with the originally supplied energies."""
        if len(values) != len(self.permutation):
            raise DimensionMismatch(
                f"expected {len(self.permutation)} values, got {len(values)}"
            )
        return tuple(float(values[i]) for i in self.permutation)


@dataclass(frozen=True)
class AthermalityState:
    """Quasi-classical state relative to its full-rank Gibbs vector."""

    r: ProbabilityVector
    g: ProbabilityVector

    def __post_init__(self):
        if self.r.dim != self.g.dim:
            raise DimensionMismatch(
                f"population dim {self.r.dim} != Gibbs dim {self.g.dim}"
            )
        if self.g.dim >= _NUMPY_MIN_DIM:
            rank_deficient = self.g.array.min() <= 0.0
        else:
            rank_deficient = any(x <= 0.0 for x in self.g.entries)
        if rank_deficient:
            raise RankDeficientGibbs("Gibbs vector must be strictly positive")

    @property
    def dim(self) -> int:
        return self.r.dim

    @property
    def is_free(self) -> bool:
        return self.r.entries == self.g.entries


def validate_state(r: Sequence[float], g: Sequence[float]) -> AthermalityState:
    """Validate and renormalize a raw (populations, Gibbs) pair."""
    if len(r) == 0 or len(g) == 0:
        raise DimensionMismatch("input lists must be non-empty")
    if len(r) != len(g):
        raise DimensionMismatch(f"lengths differ: {len(r)} vs {len(g)}")
    return AthermalityState(
        ProbabilityVector.from_raw(r), ProbabilityVector.from_raw(g)
    )


class ExtendedBeta(float):
    """Inverse temperature extended with the tags +inf and -inf.

    A float that is never NaN; the tags are the float infinities, so order
    (-inf < any finite value < +inf), equality, min/max and arithmetic are
    the float's.
    """

    __slots__ = ()

    def __new__(cls, x: float) -> "ExtendedBeta":
        self = super().__new__(cls, x)
        if math.isnan(self):
            raise ValueError("an extended beta is never NaN")
        return self

    @classmethod
    def finite(cls, value: float) -> "ExtendedBeta":
        if not math.isfinite(value):
            raise ValueError(f"finite beta with non-finite value {value!r}")
        return cls(value)

    @classmethod
    def pos_inf(cls) -> "ExtendedBeta":
        return cls(math.inf)

    @classmethod
    def neg_inf(cls) -> "ExtendedBeta":
        return cls(-math.inf)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self)

    @property
    def kind(self) -> str:
        """One of "finite", "+inf" and "-inf"."""
        if math.isfinite(self):
            return "finite"
        return "+inf" if self > 0.0 else "-inf"

    @property
    def value(self) -> float:
        """The finite value as a plain float; 0.0 for a tag."""
        return float(self) if math.isfinite(self) else 0.0

    def __neg__(self) -> "ExtendedBeta":
        return ExtendedBeta(-float(self))

    def to_json(self):
        """Finite values as numbers, tags as the strings "+inf" / "-inf"."""
        return self.value if math.isfinite(self) else self.kind
