"""The package's two kinds of failure.

A ValueError, with a message, means that input was rejected; the CLI exits 2
on any of them.  InternalCheckError means that an exact internal consistency
check failed; the CLI exits 1.  It lives in its own module so that every layer
(repthy, cohomology, ...) can raise it without importing the layers above it.
"""


class InternalCheckError(RuntimeError):
    """An exact internal consistency check failed (not a user input error)."""
