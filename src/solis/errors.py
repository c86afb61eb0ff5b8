"""Domain errors shared across the package.

Library code raises these; the CLI maps them onto exit codes.
"""

from __future__ import annotations


class SolisError(Exception):
    """Base class for all domain errors."""


class IncompatibleSequence(SolisError):
    """A sequence admits no derivation under the system at hand.

    `step` is the 1-based index of the offending rewriting step, or None when
    the incompatibility is not tied to one step.
    """

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class CapExceeded(SolisError):
    """An enumeration would exceed its configured cap.

    `count` is the size the enumeration reached (or was computed to have)
    when the cap check fired.
    """

    def __init__(self, message: str, count: int, cap: int):
        super().__init__(message)
        self.count = count
        self.cap = cap


class MissingProduction(SolisError):
    """A symbol that must be rewritten has no production in the system."""

    def __init__(self, symbol: str):
        super().__init__(f"no production with predecessor {symbol!r}")
        self.symbol = symbol


class WordLengthExceeded(SolisError):
    """Forward generation produced a word beyond the configured length guard."""

    def __init__(self, length: int, limit: int):
        super().__init__(f"generated word of length {length} exceeds limit {limit}")
        self.length = length
        self.limit = limit


class FormatError(SolisError):
    """Malformed input text (sequence or system file)."""

    def __init__(self, message: str, source: str = "<string>", line: int | None = None):
        location = source if line is None else f"{source}:{line}"
        super().__init__(f"{location}: {message}")
        self.source = source
        self.line = line
