"""Exception types shared across the library."""


class LgcError(Exception):
    """Base class for all library errors."""


class NotSquare(LgcError):
    """Basis matrix is not square."""


class SingularBasis(LgcError):
    """Basis matrix is singular (or numerically indistinguishable from it)."""


class UnknownName(LgcError):
    """Requested named lattice does not exist."""


class DimensionMismatch(LgcError):
    """Vector length does not match the lattice dimension."""


class BudgetExceeded(LgcError):
    """An enumeration or table exceeded its node/point budget."""


class NonpositiveSigma(LgcError):
    """A width parameter that must be positive was not."""


class DimensionTooLarge(LgcError):
    """Operation only supported up to a fixed dimension."""


class FlatnessTooLarge(LgcError):
    """A bound that requires epsilon < 1 was requested with epsilon >= 1."""


class MuBelowOne(LgcError):
    """Poltyrev exponent is only defined for mu >= 1."""


class InsufficientErrors(LgcError):
    """Too few Monte Carlo errors were observed for a meaningful ratio."""


class RankDeficientCode(LgcError):
    """Generator matrix does not have full rank over Z_p."""


class RandomnessExhausted(LgcError):
    """Resampling cap hit while searching for a full-rank code."""


class ConfigError(LgcError):
    """Malformed or incomplete experiment configuration."""


class MultipleAxes(ConfigError):
    """A sweep must vary exactly one axis."""
