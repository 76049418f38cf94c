"""Exception hierarchy shared across the package.

Every error carries a ``category`` used by the CLI to pick its exit code:
parse errors exit 1, typing/shape errors 2, derivation errors 3,
verification failures 4, I/O problems 5.
"""


class VectxError(Exception):
    category = "type"


class ParseError(VectxError):
    category = "parse"

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" at line {line}" if column is None else f" at line {line}, column {column}"
        elif column is not None:
            loc = f" at column {column}"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class DimensionError(VectxError):
    """Raised when a singleton unwrap meets a vector of size != 1."""


class DivisibilityError(VectxError):
    """Raised when a regroup factor does not divide the affected size."""


class ShapeError(VectxError):
    """Raised when a type or value lacks the structure an operation needs."""


class TypeMismatchError(VectxError):
    """Raised by a checked unwrap whose argument is not the expected vector."""


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
    category = "derivation"


class VerificationFailure(VectxError):
    """A derivation that promised preservation failed a trial."""

    category = "verify"


EXIT_CODES = {
    "parse": 1,
    "type": 2,
    "derivation": 3,
    "verify": 4,
    "io": 5,
}


def exit_code_for(err: BaseException) -> int:
    if isinstance(err, VectxError):
        return EXIT_CODES.get(err.category, 2)
    if isinstance(err, OSError):
        return EXIT_CODES["io"]
    raise err
