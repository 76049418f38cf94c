"""vectx: reshape algebra over sized vector types and the pipeline
transformations it induces on map/fold/zip programs."""

from .type_algebra import (
    Atom,
    Vec,
    Pair,
    VecType,
    Transform,
    total_size,
    apply_op,
    apply_transform,
    invert_transform,
    path_between,
    parse_type,
    print_type,
    parse_transform,
    print_transform,
)

__version__ = "0.1.0"

__all__ = [
    "Atom",
    "Vec",
    "Pair",
    "VecType",
    "Transform",
    "total_size",
    "apply_op",
    "apply_transform",
    "invert_transform",
    "path_between",
    "parse_type",
    "print_type",
    "parse_transform",
    "print_transform",
    "__version__",
]
