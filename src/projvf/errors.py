"""Shared exception types and the step budget."""

#: steps a bounded computation may take unless the caller sets ``max_steps``
DEFAULT_MAX_STEPS = 1_000_000


class ToolError(Exception):
    """Base class for every error raised by this package."""


class InputError(ToolError):
    """Malformed or inconsistent input: bad context, bad file, violated precondition."""


class ParseError(InputError):
    """Expression syntax error; carries the offset of the offending character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ResourceLimitError(ToolError):
    """A computation exceeded its configured step budget, or a result holds a
    number too long to print."""


class _Budget:
    """Steps left to a bounded computation; ``label`` names it in the error
    raised when a spend overdraws the budget."""

    __slots__ = ("remaining", "label")

    def __init__(self, limit: int, label: str = "computation"):
        self.remaining = limit
        self.label = label
        self.spend(0)  # a negative limit is a budget already exceeded

    def spend(self, n: int = 1):
        self.remaining -= n
        if self.remaining < 0:
            raise ResourceLimitError(f"{self.label} exceeded the configured step budget")
