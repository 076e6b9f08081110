"""Shared exception types."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; results cannot be trusted."""


class NonIntegerError(ConsistencyError):
    """A value expected to be a rational integer is not one."""


class SizeLimitError(ValueError):
    """A request past one of this tool's own size limits, which the paper's
    results do not have: name is the limit's constant, limit its value and
    size the size of the request, all three named by the message."""

    def __init__(self, what, size, name, limit):
        super().__init__(f"{what} is {size}, past {name} = {limit}")
        self.name, self.limit, self.size = name, limit, size
