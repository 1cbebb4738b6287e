"""Shared exception types.

The CLI maps these onto exit codes: invalid parameters and parse failures
are usage errors (2), witness/structure/input problems are domain errors
(1), budget exhaustion is reported separately (3), and a failed
self-check of a computed result (an internal fault, such as an a_k
certificate that does not hold) is 4.
"""


class RadiuskitError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(RadiuskitError, ValueError):
    """An argument violates an operation's precondition."""


class ParseError(RadiuskitError, ValueError):
    """A text input is malformed; carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class _EntryError(RadiuskitError, ValueError):
    """An error that may carry the 0-based position of the entry at fault
    (an edge, a sequence item or a set), for a parser to name its line."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class InputError(_EntryError):
    """Structurally valid input that refers to unknown or inconsistent data."""


class WitnessError(_EntryError):
    """A supplied witness does not have the promised property."""


class StructureError(RadiuskitError, ValueError):
    """A cover sequence violates its structural invariants; carries the index."""

    def __init__(self, message, index=None):
        if index is not None:
            message = f"set {index}: {message}"
        super().__init__(message)
        self.index = index


class UnsupportedLengthError(RadiuskitError, ValueError):
    """A constructive routine cannot produce the requested length."""


class BudgetError(RadiuskitError, RuntimeError):
    """An exact computation would exceed its configured resource budget."""


class VerificationError(RadiuskitError, RuntimeError):
    """A computed result failed its own certificate check (internal fault)."""
