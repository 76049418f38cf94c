"""Exception hierarchy shared across the package.

Each error the package raises for bad input is a ``VectxError``, whose
subclass names what went wrong.
"""


class VectxError(Exception):
    pass


class ParseError(VectxError):
    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" if column is None else f" at line {line}, column {column}"
        elif column is not None:
            loc = f" at column {column}"
        super().__init__(message + loc)
        self.message = message
        self.line = line
        self.column = column


class DimensionError(VectxError):
    """Raised when a singleton unwrap meets a vector of size != 1."""


class DivisibilityError(VectxError):
    """Raised when a regroup factor does not divide the affected size."""


class ShapeError(VectxError):
    """Raised when a type or value lacks the structure an operation needs."""


class SizeMismatchError(VectxError):
    """Raised when two types that must share a total size do not."""


class AtomMismatchError(VectxError):
    """Raised when two types that must share a leaf element do not."""


class PairMismatchError(VectxError):
    """Raised when a pair type meets a vector type, or when the two components
    of a pair need different reshapes."""


class LengthMismatchError(VectxError):
    """Raised when paired vectors have different lengths."""


class StageTypeError(VectxError):
    """Raised by the pipeline typechecker; names the offending stage."""


class MissingPrimitiveError(VectxError):
    """Raised when evaluation reaches a function with no executable body."""


class DerivationError(VectxError):
    """Raised when a transform or a stage has no derivation."""
