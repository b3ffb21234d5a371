"""Exception hierarchy shared by all modules."""


class AthermalError(ValueError):
    """Base class for all domain errors."""


class NegativeEntry(AthermalError):
    pass


class NonFiniteEntry(NegativeEntry):
    """A NaN or infinite entry: a NegativeEntry to every handler of one."""


class NormalizationOutOfTolerance(AthermalError):
    pass


class RankDeficientGibbs(AthermalError):
    pass


class DimensionMismatch(AthermalError):
    pass


class YOutOfRange(AthermalError):
    pass


class NonFiniteBeta(AthermalError):
    pass


class NonPositiveBeta(AthermalError):
    pass


class DegenerateTarget(AthermalError):
    pass


class NonPositiveGap(AthermalError):
    pass


class GapTooSmall(AthermalError):
    """A closed-form temperature overflows a float at this gap."""


class WrongDegeneracy(AthermalError):
    pass


class TrivialRatio(AthermalError):
    pass


class WOutOfRange(AthermalError):
    pass


class InvalidDensityMatrix(AthermalError):
    pass


class InvalidGrid(AthermalError):
    pass


class NonPositiveTolerance(AthermalError):
    pass


class BisectionError(RuntimeError):
    """Raised when a root bracket cannot be established or refined."""
