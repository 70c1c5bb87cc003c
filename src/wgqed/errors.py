"""Exception types shared across the library.

One class per exit status of the command line, all under WgError:
ConfigError 2, DomainError 3, ConvergenceError 4, NoCrossingError 6.
Refusals that share a status share its class; the message tells them apart.
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

