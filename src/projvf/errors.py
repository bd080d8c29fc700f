"""Shared exception types and the default step budget."""

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
    """A computation exceeded its configured step budget."""
