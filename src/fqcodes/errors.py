"""Exception hierarchy.

Every error raised by the library derives from FqcodesError, so callers
catch one base class.  The subclasses are the outcomes a caller can act
on; the CLI exits 1 on PropertyViolation and 2 on every other error.
"""


class FqcodesError(Exception):
    pass


class ParseError(FqcodesError):
    """A file or serialized object is malformed or invalid."""


class InvalidParams(FqcodesError):
    """A bad argument: out of range, or a length, field or ambient mismatch."""


class SearchTooLarge(FqcodesError):
    """An enumeration or pairwise sweep beyond its size guard."""


class PropertyViolation(FqcodesError):
    """An internal consistency re-check failed (construction bug, not user error)."""


class NotFound(FqcodesError):
    """A search over a finite space came back empty."""
