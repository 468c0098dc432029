"""Exception types shared across the toolkit.

Every error carries a short machine-readable ``code`` so the command line
driver can map failures to structured report entries (exit status 2).
"""

from __future__ import annotations


class CoarseKitError(Exception):
    code = "error"


class GroupParseError(CoarseKitError):
    """Raised when a group description string cannot be parsed."""

    code = "parse-error"

    def __init__(self, text: str, pos: int, message: str):
        self.text = text
        self.pos = pos
        super().__init__(f"{message} at position {pos} in {text!r}")


class UnsupportedRankError(CoarseKitError):
    code = "unsupported-rank"


class MalformedElementError(CoarseKitError):
    code = "malformed-element"


class InvalidRadiusError(CoarseKitError, ValueError):
    """A window radius was negative."""

    code = "invalid-radius"


class WindowTooSmallError(CoarseKitError):
    """A window too small for its verdict to mean anything."""

    code = "window-too-small"


class ResourceLimitError(CoarseKitError):
    """A ball, search, or enumeration exceeded its configured cap."""

    code = "resource-limit"


class SpaceMismatchError(CoarseKitError):
    code = "space-mismatch"


class WindowOverflowError(CoarseKitError):
    """A computation needed elements beyond the enumerated window."""

    code = "window-overflow"


class PreconditionError(CoarseKitError):
    code = "precondition-violation"


class SurjectivityError(CoarseKitError):
    """A map failed to cover an evaluated target window."""

    code = "surjectivity-violation"

    def __init__(self, element, message: str = ""):
        self.element = element
        super().__init__(message or f"target element {element!r} has no preimage in the window")


class CommutativityError(CoarseKitError):
    code = "commutativity-violation"


class SearchFailureError(CoarseKitError):
    code = "search-failure"


class CoverFailureError(CoarseKitError):
    code = "cover-failure"
