"""Exception types shared across the package."""


class InfoMenuError(Exception):
    """Base class for all package-specific errors."""


class InvalidInstance(InfoMenuError):
    """A problem instance violates its structural invariants."""


class ZeroMassSignal(InfoMenuError):
    """A signal column has zero probability under the given prior."""


class NumericalFailure(InfoMenuError):
    """An LP backend failed to converge or produced an unusable solution."""


class NoPath(InfoMenuError):
    """The traffic network has no source-sink path."""


class TooLarge(InfoMenuError):
    """An enumeration-based routine was asked to exceed its size cap."""


class GridTooLarge(TooLarge):
    """No signal grid under ``implicit.DEFAULT_GRID_CAP`` columns is fine enough."""


class NonConvergence(NumericalFailure):
    """An iterative solve hit its iteration cap without converging."""


class PairingMismatch(InfoMenuError):
    """Assumed and true type spaces cannot be paired as required."""
