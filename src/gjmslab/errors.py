"""Exception taxonomy shared by all toolkit modules."""


class ToolkitError(Exception):
    """Base class for all toolkit failures."""


class DomainError(ToolkitError):
    """Input outside the mathematical domain of an operation."""


class AliasingError(ToolkitError):
    """Truncation degree too high for the quadrature rule to resolve."""


class InconsistencyError(ToolkitError):
    """An internal cross-check failed (quadrature, spectrum, or Green-identity bug)."""


class TruncationWarning(UserWarning):
    """Spectral tail of a represented function is not negligible at the chosen degree."""
