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
    NonFiniteEntry,
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
# full query from raw lists (validate 4 vectors, build 2 boundaries,
# compare), pure Python / numpy, median of 9 interleaved rounds over four
# pairs, two runs averaged; plain ladders, 2-CPU x86-64 host, numpy 2.4:
#   n                           32   64   80   96  100  112  128  144  160  256  2048
#   relatively_majorizes      0.39 0.67 0.79 0.90 0.95 1.00 1.08 1.16 1.34 1.98  7.1
#   convertible_via_monotones 0.40 0.67 0.79 0.88 0.95 1.01 1.08 1.18 1.34 1.97  7.1
# Both break even near 110, with `fsum` and `min` checking a vector and one
# merge walk comparing; at 100 numpy loses about 5% (0.92-0.98 over the
# two runs). 100 keeps the n = 32 decide inputs and every dim <= 64 solver,
# scan and CLI input on the pure-Python path. No benchmark input lies
# between 64 and 256 levels, so moving it to 112 would change no measured
# query, and lowering it to 64 or below would send `solve`'s 64-level
# resources to numpy, where they lose.
_NUMPY_MIN_DIM = 100

# Entries per `struct.pack_into` call when the numpy path reads a list or
# tuple. One call over a million entries is slower than `np.fromiter`: its
# star-argument tuple of every entry falls out of cache. In blocks of 4096,
# validating a list is as fast as with `np.fromiter` at 100 entries, and
# takes 0.67 of its time at 2 048, 0.68 at 20 000 and 0.83 at a million.
_PACK_BLOCK = 4096


def _check_beta(beta: float) -> None:
    if not (math.isfinite(beta) and beta > 0.0):
        raise NonPositiveBeta(f"beta must be finite and > 0, got {beta!r}")


def _check_gap(E: float) -> None:
    if not (math.isfinite(E) and E > 0.0):
        raise NonPositiveGap(f"energy gap must be > 0, got {E!r}")


@dataclass(frozen=True, eq=False, init=False)
class ProbabilityVector:
    """Probability vector, stored exactly renormalized, once, in the form its
    validation built: a tuple of floats below `_NUMPY_MIN_DIM` entries, a
    read-only numpy array from there up, whatever kind of number each entry
    is (`_validated_array` packs a list with `struct`, and reads it with
    `np.fromiter` where an entry is a numeric string, which both paths read
    as `float` does). The stored form seeds its own view, `entries` for a
    tuple and `array` for an array; the other view is made on its first
    read and kept. Seeding also skips the lock that cached_property takes
    on a first read before Python 3.12, about 0.3 us a vector on a 10 us
    qubit decision.

    Takes any sequence of numbers, such as a list, tuple or numpy array;
    each entry is read as a float. Below the threshold the checks run at
    builtin speed: the `math.fsum` total must lie within NORMALIZATION_TOL
    of 1 (so every entry is finite) and `min` of the entries must be >= 0.
    Only when one fails does a loop over the entries run, to name the first
    non-finite or negative one; with none, the total is off (inf where it
    overflows a float). The array path's failures end in the same loop.
    """

    _stored: tuple[float, ...]  # or a read-only numpy array

    def __init__(self, raw: Sequence[float]):
        if len(raw) < 1:
            raise DimensionMismatch("probability vector must have dim >= 1")
        if len(raw) >= _NUMPY_MIN_DIM:
            a = _validated_array(raw)
            if a is not None:
                kept = self.__dict__
                kept["_stored"] = kept["array"] = a
                return
        entries = tuple(map(float, raw))
        try:
            total = math.fsum(entries)
        except (OverflowError, ValueError):  # past the float range, or inf - inf
            total = math.inf
        # A total within the tolerance is finite, so every entry is: NaN and
        # inf fail the first test, a negative entry the second.
        if not (abs(total - 1.0) <= NORMALIZATION_TOL and min(entries) >= 0.0):
            for x in entries:
                if not math.isfinite(x):
                    raise NonFiniteEntry(f"non-finite entry {x!r}")
                if x < 0.0:
                    raise NegativeEntry(f"negative entry {x!r}")
            raise NormalizationOutOfTolerance(
                f"entries sum to {total!r}, off by more than {NORMALIZATION_TOL}"
            )
        if total != 1.0:
            entries = tuple([x / total for x in entries])
        kept = self.__dict__
        kept["_stored"] = kept["entries"] = entries

    @cached_property
    def entries(self) -> tuple[float, ...]:
        """The entries as a tuple of floats."""
        return tuple(self._stored.tolist())

    @cached_property
    def array(self):
        """The entries as a read-only numpy array."""
        import numpy as np

        a = np.array(self._stored, dtype=float)
        a.flags.writeable = False
        return a

    @property
    def dim(self) -> int:
        return len(self._stored)

    def __eq__(self, other):
        if not isinstance(other, ProbabilityVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)


def _validated_array(raw: Sequence[float]):
    """The checks of `ProbabilityVector` in whole-array steps, for large
    vectors: the renormalized entries as a read-only array, or None when a
    check fails or an entry is not a number that numpy reads. The scalar
    loop then decides: it raises the same error, naming the same entry.
    A list or tuple is packed into the array by `struct`, in the array's
    native byte order, `_PACK_BLOCK` entries a call, each entry converted
    as `float` converts it (an int, bool, numpy scalar, Decimal, Fraction or
    float subclass alike): one C loop, where `np.fromiter` takes about 1.5
    times as long. An entry that `struct` refuses sends the whole list to
    `np.fromiter`: a numeric string is read there as `float` reads it, so
    such a vector keeps the array form, with the scalar loop's values; None,
    a complex number, a nested list or an int past the float range fail
    there. The total is `math.fsum` of the entries, from `_exact_sum` or,
    where that cannot be sure, from `fsum` itself, so the renormalization
    is the scalar loop's, bit for bit.
    """
    import struct

    import numpy as np

    try:
        if isinstance(raw, (list, tuple)):
            n = len(raw)
            a = np.empty(n)
            try:
                for i in range(0, n, _PACK_BLOCK):
                    block = raw[i : i + _PACK_BLOCK] if n > _PACK_BLOCK else raw
                    struct.pack_into(f"{len(block)}d", a, 8 * i, *block)
            except struct.error:  # np.fromiter reads or rejects the entry
                a = np.fromiter(raw, float, count=n)
        else:
            a = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        return None
    # NaN fails both tests; the total is at least the largest entry
    if a.ndim != 1 or not (a.min() >= 0.0 and a.max() <= 1.0 + NORMALIZATION_TOL):
        return None
    total = _exact_sum(a)
    if total is None:
        total = math.fsum(a.tolist())
    if abs(total - 1.0) > NORMALIZATION_TOL:
        return None
    if total != 1.0:
        a /= total
    a.flags.writeable = False
    return a


def _exact_sum(a):
    """`math.fsum(a.tolist())` for entries in [0, 2], in a few whole-array
    steps, or None where those steps cannot be sure of it.

    Error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci. Comput. 31,
    189 (2008)) against sigma = 2, with u = 2**-53 and n < 2**k entries:
    - q = (2 + a) - 2 is exact and a non-negative multiple of 4u, so every
      partial sum of q below 4 is exact: `q.sum()` is the exact total tau
      of q, in any order, wherever it comes out below 4;
    - each remainder a - q is exact and at most 2u, so their rounded sum
      rho is within delta = 2(n - 1)u * 2nu < 2**(2k - 104) of their exact
      one (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
      sec. 4.2);
    - t = tau + rho, and the exact total lies within delta of t + err,
      where err = tau + rho - t is exact by two-sum. t is fsum's where that
      whole range lies strictly inside t's rounding interval, whose lower
      half-gap is half the upper one when t is a power of two.
    """
    import numpy as np

    q = a + 2.0
    q -= 2.0
    tau = float(np.add.reduce(q))
    if not tau < 4.0:
        return None
    np.subtract(a, q, out=q)
    rho = float(np.add.reduce(q))
    t = tau + rho
    z = t - tau
    err = (tau - (t - z)) + (rho - z)
    delta = math.ldexp(1.0, 2 * len(a).bit_length() - 104)
    if (
        err + delta < 0.5 * (math.nextafter(t, math.inf) - t)
        and err - delta > 0.5 * (math.nextafter(t, 0.0) - t)
    ):
        return t
    return None


@dataclass(frozen=True)
class GibbsContext:
    """Sorted energy levels plus a positive inverse temperature.

    Energies are accepted in any order; they are sorted stably and the
    sorting permutation is retained so paired population lists can be
    reordered consistently (see :meth:`apply_permutation`).
    """

    energies: tuple[float, ...]
    beta: float
    permutation: tuple[int, ...] = field(init=False, compare=False)

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

    def ground_degeneracy(self) -> int:
        return self.energies.count(self.energies[0])

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
        r, g = self.r._stored, self.g._stored
        if len(r) != len(g):
            raise DimensionMismatch(f"population dim {len(r)} != Gibbs dim {len(g)}")
        if (min(g) if type(g) is tuple else g.min()) <= 0.0:
            raise RankDeficientGibbs("Gibbs vector must be strictly positive")

    @property
    def dim(self) -> int:
        return self.r.dim


def validate_state(r: Sequence[float], g: Sequence[float]) -> AthermalityState:
    """Validate and renormalize a raw (populations, Gibbs) pair."""
    if len(r) == 0 or len(g) == 0:
        raise DimensionMismatch("input lists must be non-empty")
    if len(r) != len(g):
        raise DimensionMismatch(f"lengths differ: {len(r)} vs {len(g)}")
    return AthermalityState(ProbabilityVector(r), ProbabilityVector(g))


class ExtendedBeta(float):
    """Inverse temperature extended with the tags +inf and -inf.

    A float that is never NaN; the tags are the float infinities, so order
    (-inf < any finite value < +inf), equality, min/max and arithmetic are
    the float's.
    """

    __slots__ = ()

    def __new__(cls, x: float) -> "ExtendedBeta":
        self = float.__new__(cls, x)
        if self != self:  # NaN
            raise ValueError("an extended beta is never NaN")
        return self

    @classmethod
    def finite(cls, value: float) -> "ExtendedBeta":
        if not math.isfinite(value):
            raise ValueError(f"finite beta with non-finite value {value!r}")
        return cls(value)

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
