"""Shared exception types."""


class CapExceeded(RuntimeError):
    """An enumeration outgrew its resource cap.

    Never a silent truncation: the message, its only content, says what
    was being enumerated and how large it was allowed to get.
    """


class InternalInvariantError(AssertionError):
    """A step the underlying theory guarantees has failed.

    Raising this means the implementation is wrong, not the input.
    """


class WordInSubgroup(ValueError):
    """The word lies in the subgroup, so no quotient separates it."""
