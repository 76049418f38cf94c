"""Sized vector types and the order-preserving reshape algebra over them.

A type is either an atom, a fixed-size vector of a type, or a pair.  The
textual form writes sizes innermost first: ``[a]<2><3>`` is a 3-vector of
2-vectors of ``a``.

A pair plays two roles.  At the top of a type it is a pipeline signature,
``([a]<n>,[b]<n>)``, and a transform acts on both components alike.  Below a
vector it is an element, ``[(a,b)]<n>``, and like an atom it is a leaf: the
reshapes re-partition the vector without looking inside its elements.

Transforms are sequences of primitive operations applied right to left:

    S        wrap in a size-1 vector
    S^-1     unwrap a size-1 vector
    M ( F )  apply transform F to the element type
    R m      move a factor m from the outer size to the inner size
    R^-1 m   move a factor m from the inner size to the outer size
    V k      wrap in a size-k vector (replication)
    V^-1 k   checked unwrap of a size-k vector
    I        identity: no operation (``I`` is the empty transform's text)

``S``, ``M`` and ``R`` never change the total size of a type; ``V`` does and
is excluded from the size-invariance guarantees.  Every transform built from
these operations is invertible.

A reshape goes between two vector types with the same leaf and the same total
size, and factors into the canonical steps ``Increase`` and ``Decrease``.
The steps between two types are worked out once, here (``steps_between``);
``path_between`` gives them as one transform, and the derivation pushes them
through a pipeline.

``S``, ``M`` and ``R`` re-partition the ordered leaves without reordering
them, so the types alone fix what they do to a value.  ``V`` replicates and
projects; it lives at the type level only (``wrap_op`` finds it), and the
derivation and the value layer reject it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Union

from .errors import (
    AtomMismatchError,
    DimensionError,
    DivisibilityError,
    PairMismatchError,
    ParseError,
    ShapeError,
    SizeMismatchError,
    TypeMismatchError,
    VectxError,
)

# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Vec:
    size: int
    element: "VecType"

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"vector size must be >= 1, got {self.size}")


@dataclass(frozen=True)
class Pair:
    fst: "VecType"
    snd: "VecType"


VecType = Union[Atom, Vec, Pair]


def total_size(t: VecType) -> int:
    """Product of all sizes along the vector spine; 1 for a leaf."""
    n = 1
    while isinstance(t, Vec):
        n *= t.size
        t = t.element
    return n


def leaf_of(t: VecType) -> VecType:
    """Innermost non-vector element along the spine (atom or pair)."""
    while isinstance(t, Vec):
        t = t.element
    return t


def dims_of(t: VecType) -> tuple[int, ...]:
    """Sizes along the spine, innermost first."""
    out = []
    while isinstance(t, Vec):
        out.append(t.size)
        t = t.element
    return tuple(reversed(out))


def from_dims(leaf: VecType, dims: tuple[int, ...]) -> VecType:
    """Rebuild a spine from innermost-first sizes."""
    t = leaf
    for d in dims:
        t = Vec(d, t)
    return t


# ---------------------------------------------------------------------------
# Operations


@dataclass(frozen=True)
class Lift:
    """Singleton wrap: t becomes [t]<1>."""


@dataclass(frozen=True)
class Unlift:
    """Singleton unwrap: [t]<1> becomes t."""


@dataclass(frozen=True)
class MapElem:
    """Apply a transform to the element type of a vector."""

    inner: "Transform"


class _CountedOp:
    """An operation whose one field is an integer of at least 1; ``_OPS``
    names the integer."""

    def __post_init__(self):
        (n,) = vars(self).values()
        if n < 1:
            raise ValueError(f"{_OP_TEXT[type(self)].what} must be >= 1, got {n}")


@dataclass(frozen=True)
class Regroup(_CountedOp):
    """[[t]<n1>]<n2> becomes [[t]<n1*m>]<n2/m>."""

    m: int


@dataclass(frozen=True)
class RegroupInv(_CountedOp):
    """[[t]<n1>]<n2> becomes [[t]<n1/m>]<n2*m>."""

    m: int


@dataclass(frozen=True)
class Wrap(_CountedOp):
    """t becomes [t]<k>; grows the total size."""

    k: int


@dataclass(frozen=True)
class Unwrap(_CountedOp):
    """Checked unwrap: [t]<k> becomes t, error on any other argument."""

    k: int


TypeOp = Union[Lift, Unlift, MapElem, Regroup, RegroupInv, Wrap, Unwrap]

# The text of each operation but ``M``: its keyword, its class, the class of
# its inverse, whose keyword adds ``^-1``, and the name of its integer, if any.
_OPS = {
    "S": (Lift, Unlift, None),
    "R": (Regroup, RegroupInv, "regroup factor"),
    "V": (Wrap, Unwrap, "wrap size"),
}


class _OpText(NamedTuple):
    """One class of ``_OPS``: its keyword, with ``^-1`` for an inverse, the
    name of its integer, and the class of its inverse."""

    text: str
    what: Optional[str]
    inverse: type


_OP_TEXT = {
    cls: _OpText(keyword + mark, what, other)
    for keyword, (op, inv, what) in _OPS.items()
    for cls, mark, other in ((op, "", inv), (inv, "^-1", op))
}


@dataclass(frozen=True)
class Transform:
    """Operation sequence in display order; the rightmost op applies first.

    The empty sequence is the identity.  Composition is concatenation:
    ``compose(f, g)`` applies ``g`` first.
    """

    ops: tuple[TypeOp, ...] = ()

    def __len__(self):
        return len(self.ops)


IDENTITY = Transform(())


def compose(after: Transform, first: Transform) -> Transform:
    return Transform(after.ops + first.ops)


def apply_op(op: TypeOp, t: VecType) -> VecType:
    """Apply one operation to a type: ``apply_transform`` of the one-op
    transform, so a top-level pair is split in the same way."""
    return apply_transform(Transform((op,)), t)


def apply_transform(tr: Transform, t: VecType) -> VecType:
    """Fold the operations over t from rightmost to leftmost.

    A top-level pair is split and both components are transformed
    identically.  This is the only place a pair is split: a pair reached
    through ``M`` is a vector element and stays a leaf.
    """
    if isinstance(t, Pair):
        return Pair(apply_transform(tr, t.fst), apply_transform(tr, t.snd))
    return _apply_ops(tr, t)


def _apply_ops(tr: Transform, t: VecType) -> VecType:
    for pos in range(len(tr.ops) - 1, -1, -1):
        op = tr.ops[pos]
        try:
            t = _apply_op(op, t)
        except VectxError as e:
            raise type(e)(f"op {print_op(op)} at position {pos}: {e}") from e
    return t


def _apply_op(op: TypeOp, t: VecType) -> VecType:
    """One operation on a type whose pairs, if any, are leaves.

    On a leaf (an atom or a pair), element mapping and regrouping are
    identities.
    """
    if isinstance(op, Lift):
        return Vec(1, t)
    if isinstance(op, Unlift):
        if not isinstance(t, Vec) or t.size != 1:
            raise DimensionError(f"S^-1 needs a size-1 vector, got {print_type(t)}")
        return t.element
    if isinstance(op, MapElem):
        if not isinstance(t, Vec):
            return t
        return Vec(t.size, _apply_ops(op.inner, t.element))
    if isinstance(op, Regroup):
        if not isinstance(t, Vec):
            return t
        if not isinstance(t.element, Vec):
            raise ShapeError(f"R needs a nested vector, got {print_type(t)}")
        if t.size % op.m != 0:
            raise DivisibilityError(
                f"R {op.m}: outer size {t.size} is not a multiple of {op.m}"
            )
        return Vec(t.size // op.m, Vec(t.element.size * op.m, t.element.element))
    if isinstance(op, RegroupInv):
        if not isinstance(t, Vec):
            return t
        if not isinstance(t.element, Vec):
            raise ShapeError(f"R^-1 needs a nested vector, got {print_type(t)}")
        if t.element.size % op.m != 0:
            raise DivisibilityError(
                f"R^-1 {op.m}: inner size {t.element.size} is not a multiple of {op.m}"
            )
        return Vec(t.size * op.m, Vec(t.element.size // op.m, t.element.element))
    if isinstance(op, Wrap):
        return Vec(op.k, t)
    if isinstance(op, Unwrap):
        if not isinstance(t, Vec) or t.size != op.k:
            raise TypeMismatchError(f"V^-1 {op.k} does not apply to {print_type(t)}")
        return t.element
    raise TypeError(f"unknown operation {op!r}")


def wrap_op(tr: Transform) -> Optional[TypeOp]:
    """The first ``V k`` or ``V^-1 k`` in tr at any depth, or None.

    ``V`` replicates and ``V^-1`` projects, so a transform that uses either is
    not a reshape: it has no derivation and no value-level counterpart.
    """
    for op in tr.ops:
        if isinstance(op, (Wrap, Unwrap)):
            return op
        if isinstance(op, MapElem) and (inner := wrap_op(op.inner)) is not None:
            return inner
    return None


def invert_op(op: TypeOp) -> TypeOp:
    if isinstance(op, MapElem):
        return MapElem(invert_transform(op.inner))
    return _OP_TEXT[type(op)].inverse(*vars(op).values())


def invert_transform(tr: Transform) -> Transform:
    """Reverse the sequence and invert each operation."""
    return Transform(tuple(invert_op(op) for op in reversed(tr.ops)))


# ---------------------------------------------------------------------------
# Canonical steps: a reshape between vector types factors into these.  Each
# adds or removes one level of the partition at the outside of a type, so a
# re-chunk, [[t]<k>]<m> to [[t]<n>]<k*m/n>, is Decrease(k) then Increase(n).


@dataclass(frozen=True)
class Increase:
    """[t]<N> becomes [[t]<k>]<N/k>: chunk into k-groups."""

    k: int


@dataclass(frozen=True)
class Decrease:
    """[[t]<k>]<m> becomes [t]<k*m>: flatten one level."""

    k: int


Step = Union[Increase, Decrease]


def print_step(step: Step) -> str:
    if isinstance(step, Increase):
        return f"increase {step.k}"
    return f"decrease {step.k}"


@lru_cache(maxsize=256)
def step_transform(step: Step) -> Transform:
    """The step as a transform in ``S``, ``R`` and ``M``."""
    if isinstance(step, Increase):
        return Transform((Regroup(step.k), MapElem(Transform((Lift(),)))))
    return Transform((MapElem(Transform((Unlift(),))), RegroupInv(step.k)))


def steps_to_transform(steps) -> Transform:
    """The steps, applied first to last, as one transform."""
    tr = IDENTITY
    for step in steps:
        tr = compose(step_transform(step), tr)
    return tr


def invert_step(step: Step) -> Step:
    if isinstance(step, Increase):
        return Decrease(step.k)
    return Increase(step.k)


def step_apply(step: Step, t: VecType) -> VecType:
    """The type a step carries t to.  Each component of t must be a vector:
    on a leaf, ``R`` and ``M`` are identities and the step would be lost."""
    for part in (t.fst, t.snd) if isinstance(t, Pair) else (t,):
        if not isinstance(part, Vec):
            raise ShapeError(f"{print_step(step)} needs a vector, got {print_type(part)}")
    return apply_transform(step_transform(step), t)


def steps_between(t1: VecType, t2: VecType) -> tuple[Step, ...]:
    """The steps carrying t1 to t2: flatten t1's outer levels, then chunk
    towards t2's, cancelling each inner level the two share.

    Both types must have the same total size and the same leaf element, and
    two unequal types must both be vectors.  Two pairs are carried component
    by component, and as ``apply_transform`` transforms both components
    alike, the two must need the same steps.
    """
    if isinstance(t1, Pair) and isinstance(t2, Pair):
        steps = steps_between(t1.fst, t2.fst)
        if steps != steps_between(t1.snd, t2.snd):
            raise PairMismatchError(
                f"the components of a pair need different reshapes: first "
                f"{print_type(t1.fst)} to {print_type(t2.fst)}, second "
                f"{print_type(t1.snd)} to {print_type(t2.snd)}"
            )
        return steps
    if isinstance(t1, Pair) or isinstance(t2, Pair):
        raise PairMismatchError(
            f"no reshape between a pair and a vector: {print_type(t1)} and {print_type(t2)}"
        )
    if total_size(t1) != total_size(t2):
        raise SizeMismatchError(
            f"total sizes differ: {print_type(t1)} has {total_size(t1)}, "
            f"{print_type(t2)} has {total_size(t2)}"
        )
    if leaf_of(t1) != leaf_of(t2):
        raise AtomMismatchError(
            f"leaf elements differ: {print_type(leaf_of(t1))} vs {print_type(leaf_of(t2))}"
        )
    if t1 == t2:
        return ()
    for t in (t1, t2):
        if not isinstance(t, Vec):
            raise ShapeError(
                f"no reshape between {print_type(t1)} and {print_type(t2)}: "
                f"{print_type(t)} is not a vector"
            )
    down = [Decrease(d) for d in reversed(dims_of(t1)[:-1])]
    up = [Increase(d) for d in dims_of(t2)[:-1]]
    while down and up and down[-1].k == up[0].k:  # a level both types share
        down.pop()
        up.pop(0)
    return tuple(down + up)


def path_between(t1: VecType, t2: VecType) -> Transform:
    """A transform carrying t1 to t2: the transform of ``steps_between``."""
    return steps_to_transform(steps_between(t1, t2))


# ---------------------------------------------------------------------------
# Text form


def print_type(t: VecType) -> str:
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Pair):
        return f"({print_type(t.fst)},{print_type(t.snd)})"
    sizes = []  # outermost first
    while isinstance(t, Vec):
        sizes.append(t.size)
        t = t.element
    return f"[{print_type(t)}]" + "".join(f"<{s}>" for s in reversed(sizes))


def print_op(op: TypeOp) -> str:
    if isinstance(op, MapElem):
        return f"M ( {print_transform(op.inner)} )"
    return " ".join([_OP_TEXT[type(op)].text, *map(str, vars(op).values())])


def print_transform(tr: Transform) -> str:
    if not tr.ops:
        return "I"
    return " ".join(print_op(op) for op in tr.ops)


# Brackets, parentheses and ``M (`` groups nest at most this deep in a text
# form.  The parsers recurse once per level, and so do the printers, the
# comparisons and the typing of what they build, so a fixed bound keeps every
# one of them far from Python's recursion limit.
MAX_NESTING = 100

# A random value has at most this many leaves; ``[a]<65536><65536>`` has 2**32.
MAX_LEAVES = 2**24


def check_nesting(depth: int, column: int):
    """Raise ``ParseError`` at a bracket opening level ``depth``, counted
    from 1, when that is past ``MAX_NESTING``."""
    if depth > MAX_NESTING:
        raise ParseError(f"nesting deeper than {MAX_NESTING} levels", column=column)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", column=self.pos + 1)
        self.pos += 1

    def at_end(self) -> bool:
        return self.peek() == ""

    def positive(self, what: str) -> int:
        """An integer of at least 1; ``what`` names it in the error."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", column=start + 1)
        try:
            n = int(self.text[start : self.pos])
        except ValueError as e:  # more digits than int() converts
            raise ParseError(f"integer too long: {e}", column=start + 1) from None
        if n < 1:
            raise ParseError(f"{what} must be >= 1, got {n}", column=self.pos)
        return n

    def identifier(self) -> str:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and (
            self.text[self.pos].isalpha() or self.text[self.pos] == "_"
        ):
            self.pos += 1
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "_"
            ):
                self.pos += 1
        if self.pos == start:
            raise ParseError("expected an identifier", column=start + 1)
        return self.text[start : self.pos]


def _parse_type(sc: _Scanner, depth: int = 0) -> VecType:
    ch = sc.peek()
    if ch == "[":
        check_nesting(depth + 1, sc.pos + 1)
        sc.expect("[")
        elem = _parse_type(sc, depth + 1)
        sc.expect("]")
        if sc.peek() != "<":
            raise ParseError("expected at least one <size>", column=sc.pos + 1)
        t = elem
        while sc.peek() == "<":
            sc.expect("<")
            n = sc.positive("size")
            sc.expect(">")
            t = Vec(n, t)
        return t
    if ch == "(":
        check_nesting(depth + 1, sc.pos + 1)
        sc.expect("(")
        fst = _parse_type(sc, depth + 1)
        sc.expect(",")
        snd = _parse_type(sc, depth + 1)
        sc.expect(")")
        return Pair(fst, snd)
    return Atom(sc.identifier())


def parse_type(text: str) -> VecType:
    sc = _Scanner(text)
    t = _parse_type(sc)
    if not sc.at_end():
        raise ParseError("trailing input after type", column=sc.pos + 1)
    return t


def _parse_ops(sc: _Scanner, depth: int = 0) -> list[TypeOp]:
    ops: list[TypeOp] = []
    while True:
        ch = sc.peek()
        if ch in ("", ")"):
            return ops
        name = sc.identifier()
        inverse = False
        if sc.peek() == "^":
            sc.expect("^")
            sc.skip_ws()
            if not sc.text[sc.pos :].startswith("-1"):
                raise ParseError("expected -1 after ^", column=sc.pos + 1)
            sc.pos += 2
            inverse = True
        if name in _OPS:
            op, inv, what = _OPS[name]
            cls = inv if inverse else op
            ops.append(cls() if what is None else cls(sc.positive(what)))
        elif name == "I":  # the identity, which is no operation
            if inverse:
                raise ParseError("I has no inverse marker", column=sc.pos)
        elif name == "M":
            if inverse:
                raise ParseError("write M ( F^-1 ) rather than M^-1", column=sc.pos)
            check_nesting(depth + 1, sc.pos + 1)
            sc.expect("(")
            inner = _parse_ops(sc, depth + 1)
            sc.expect(")")
            ops.append(MapElem(Transform(tuple(inner))))
        else:
            raise ParseError(f"unknown operation {name!r}", column=sc.pos)


def parse_transform(text: str) -> Transform:
    sc = _Scanner(text)
    ops = _parse_ops(sc)
    if not sc.at_end():
        raise ParseError("trailing input after transform", column=sc.pos + 1)
    return Transform(tuple(ops))
