"""Shared exception types.

The CLI maps these onto process exit codes, so raising the right class
matters more than the message text.
"""


class PresslabError(Exception):
    """Base class for all package errors."""


class ParseError(PresslabError):
    """Malformed config file, system string, or potential string."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class AnalyticUnavailable(PresslabError):
    """No closed-form geometry for this system/kind/potential combination."""


class DepthTooLarge(PresslabError):
    """A depth past the word enumeration cap, or a grid past its size
    limit."""
