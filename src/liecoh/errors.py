"""The error raised when an exact internal consistency check fails.

It lives in its own module so that every layer (repthy, cohomology, ...) can
raise it without importing the layers above it.
"""


class InternalCheckError(RuntimeError):
    """An exact internal consistency check failed (not a user input error)."""
