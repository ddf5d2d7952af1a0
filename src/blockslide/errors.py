"""Exception types shared across the package."""


class BlockslideError(Exception):
    """Base class for all errors raised by this package."""


def _at(line, message):
    """message, after "line N: " when there is a line number."""
    return message if line is None else f"line {line}: {message}"


class SelfLoopError(BlockslideError):
    """A self-loop; line is the instance file's line, when one exists."""

    def __init__(self, u, line=None):
        super().__init__(_at(line, f"self-loop at vertex {u}"))
        self.vertex = u
        self.line = line


class DuplicateEdgeError(BlockslideError):
    """An edge given twice; line is the instance file's line of the second,
    when one exists."""

    def __init__(self, u, v, line=None):
        super().__init__(_at(line, f"duplicate edge ({u}, {v})"))
        self.edge = (u, v)
        self.line = line


class VertexOutOfRangeError(BlockslideError):
    def __init__(self, u, n):
        super().__init__(f"vertex {u} out of range for graph with {n} vertices")
        self.vertex = u


class NotIndependentError(BlockslideError):
    def __init__(self, which="set"):
        super().__init__(f"{which} is not an independent set")
        self.which = which


class NotABlockGraphError(BlockslideError):
    pass


class InvalidPairError(BlockslideError):
    pass


class TruncatedSpaceError(BlockslideError):
    pass


class InvalidParamsError(BlockslideError):
    pass


class InstanceFormatError(BlockslideError):
    """Raised on malformed instance files; carries the offending line number
    when one exists (None for structural problems like a missing section)."""

    def __init__(self, message, line=None):
        super().__init__(_at(line, message))
        self.line = line


class MissingSectionError(InstanceFormatError):
    def __init__(self, section):
        super().__init__(f"missing required section '{section}'")
        self.section = section


class InternalError(BlockslideError):
    """An internal invariant failed: a bug in this package, not bad input.
    Raised explicitly so the check also runs under ``python -O``."""
