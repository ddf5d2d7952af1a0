"""Exception types shared across the package."""


class BlockslideError(Exception):
    """Base class for all errors raised by this package."""


class SelfLoopError(BlockslideError):
    def __init__(self, u):
        super().__init__(f"self-loop at vertex {u}")
        self.vertex = u


class DuplicateEdgeError(BlockslideError):
    def __init__(self, u, v):
        super().__init__(f"duplicate edge ({u}, {v})")
        self.edge = (u, v)


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
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MissingSectionError(InstanceFormatError):
    def __init__(self, section):
        super().__init__(f"missing required section '{section}'")
        self.section = section


class InternalError(BlockslideError):
    """An internal invariant failed: a bug in this package, not bad input.
    Raised explicitly so the check also runs under ``python -O``."""
