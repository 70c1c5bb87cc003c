"""Exception types shared across the library.

Every failure mode that callers are expected to branch on gets its own
class so the command line layer can map it to a stable exit status.
"""

from __future__ import annotations


class WgError(Exception):
    """Base class for all library errors."""


class DomainError(WgError):
    """Input outside the physical or contractual domain of an operation."""


class ConfigError(WgError):
    """Malformed or contradictory run configuration."""


class ConvergenceError(WgError):
    """An iterative numerical scheme stopped before reaching tolerance.

    Carries the last two iterates so the caller can see how far apart
    they still were.
    """

    def __init__(self, message: str, last: float | complex | None = None,
                 previous: float | complex | None = None):
        super().__init__(message)
        self.last = last
        self.previous = previous


class NoCrossingError(WgError):
    """No crossing: a root search found no sign change over its
    bracket, or the crossing condition of ``omega_d`` fails."""

    def __init__(self, message: str, scanned_range: tuple | None = None,
                 value_range: tuple | None = None):
        super().__init__(message)
        self.scanned_range = scanned_range
        self.value_range = value_range


class PurelyEvanescentError(DomainError):
    """Pole extraction asked for a mode that carries no traveling wave."""


class DominanceError(DomainError):
    """Single-mode treatment requested outside the single-mode window.

    ``competitors`` lists the (polarization, m, n, cutoff) tuples whose
    cutoffs conflict with the requested frequency.
    """

    def __init__(self, message: str, competitors: list | None = None):
        super().__init__(message)
        self.competitors = competitors or []
