"""Exception types shared across the package."""


class MonoidHolesError(Exception):
    """Base class for all errors raised by this package."""


class NotPointedError(MonoidHolesError):
    """The cone generated by the matrix columns contains a line."""


class RankDeficientError(MonoidHolesError):
    """An operation required a matrix of full row rank."""


class ResourceLimitError(MonoidHolesError):
    """A configured resource ceiling was hit before an answer was found.

    This is always distinguishable from a negative answer: no operation
    reports "no" by exhausting a budget.
    """

    def __init__(self, what: str, limit: int):
        super().__init__(f"resource limit exceeded: {what} (limit {limit})")
        self.what = what
        self.limit = limit


class InternalInconsistencyError(MonoidHolesError):
    """A defensive cross-check failed; indicates a bug, not bad input."""


class MatrixParseError(MonoidHolesError):
    """An input file or vector literal could not be parsed."""
