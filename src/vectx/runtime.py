"""Nested vector values, the value-level operations, and the reference evaluator.

Values mirror types: a scalar is a plain Python ``int`` (its type exactly:
a ``bool`` would print as ``True``), a pair a ``TupVal`` and a vector a
``VecVal`` of uniformly shaped ``items``.  A pair is a ``tuple`` subclass, so
``zipt`` and ``unzipt`` build and split a vector of pairs in C, with no Python
frame per pair.  A vector stays a dataclass with an ``items`` tuple, not a
bare tuple or a flat leaf buffer, because callers rebuild one with
``dataclasses.replace(v, items=...)``.  Everything here is a pure function
over immutable values, and comparisons of Python integers are exact, so
semantic-preservation checks are bit-exact.

``random_value`` draws the leaves of a value in bulk, a batch of Mersenne
Twister words per ``getrandbits`` call, and they are exactly the
``rng.randint(LEAF_MIN, LEAF_MAX)`` sequence, one call per leaf, with the same
final state, so a seeded ``verify`` finds the same inputs and counterexamples.

A value reshape is "flatten the leaves, rebuild at the target type".  ``S``,
``R`` and ``M`` re-partition the ordered leaves without reordering them, so
``apply_transform_value`` reads the sizes of a value, takes the target sizes
from ``type_algebra.apply_transform`` and regroups the same leaves at them.
It is the one value-level reshape: ``reshape_to``/``reshape_from`` and the
``reshapeTo``/``reshapeFrom`` stages run their ``Increase``/``Decrease`` step
through it (``_step_fn``).  There is no per-operation value interpreter:
``type_algebra`` is the only statement of what each operation does.

Replication and projection are not reshapes: ``to_vector``/``from_vector``
replicate and project for the ``wrapelem``/``wrapfold`` functions, and
``zipt``/``unzipt`` convert between a pair of vectors and a vector of pairs.

A program is compiled once and then run.  ``compile_program`` walks its
stages and its function table a single time and returns one closure: each
function becomes a closure shared by all its callers, so no definition is
looked up or dispatched per element.  A ``map`` or ``foldl`` stage runs one
vector level at a time.  Over a function nested d deep in ``elementwise``
(or ``foldof``) around a base h, it unfolds d+1 levels into one flat list of
nodes, checking each level once, and then maps h over the list and rebuilds
the same lengths (or left-folds h over it).  This is exact because ``S``,
``R`` and ``M`` never reorder leaves: the nested map visits the same nodes in
the same order, and the nested fold is the fold-Increase rule read
backwards.  ``eval_program`` compiles and then runs; it is the exact
reference the derivations are checked against.

Each primitive is stated once, in ``_TABLE``: the class of each argument
(or none, where the operation checks it itself), the plain operation, and
the type it returns on arguments of given types (``primitive_type``), which
is how ``typecheck`` checks a primitive's declared signature and types the
``zipt`` and ``unzipt`` stages.  Atoms are labels there, as in ``conforms``.
``PRIMITIVES`` checks the classes first to last on every call.  A ``map`` or
``foldl`` pass checks them once per level and runs the plain operation on
every node; if that check fails, it calls the checked primitive node by
node, so it raises what a direct call raises.

A typed program can also run on leaf columns.  ``leaf_columns`` takes a
value to one tuple of ints per atom of its type, each in leaf order, the two
parts of a pair giving their columns in turn; it is the walk ``conforms``
makes, and gives ``None`` where the value does not conform.  Since ``S``,
``R`` and ``M`` never reorder leaves, a reshape, ``zipt`` or ``unzipt``
stage leaves the columns as they are, and so does a ``map`` of ``zipt`` or
``unzipt``; ``compile_columns`` compiles every other ``map`` and ``foldl``
of a scalar primitive or ``swap`` to a pass over whole columns, the rule
and the plain operation read from the primitive's ``_TABLE`` row.  It runs
on a typed program only, whose primitives are declared at signatures their
rows give, so it checks no signature itself.  A program with another stage
(``reverse``, ``sum``, ``add_head``, a ``wrapelem`` or ``wrapfold``
function) has no column form, and runs by ``compile_program``.
``derivation.verify`` replays its trials on columns; ``eval_program`` stays
the reference, on values.
"""

from __future__ import annotations

import operator
import random
import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, chain, islice, repeat
from math import prod
from typing import Callable, Optional, Union

from .errors import (
    LengthMismatchError,
    MissingPrimitiveError,
    ParseError,
    ShapeError,
)
from .type_algebra import (
    MAX_LEAVES,
    Atom,
    Decrease,
    Increase,
    Pair,
    Step,
    Transform,
    Vec,
    VecType,
    apply_transform,
    check_nesting,
    dims_of,
    from_dims,
    leaf_of,
    print_step,
    print_type,
    step_transform,
)

# ---------------------------------------------------------------------------
# Values


@dataclass(frozen=True)
class VecVal:
    items: tuple["Value", ...]

    def __len__(self):
        return len(self.items)


class TupVal(tuple):
    """A pair value: the 2-tuple ``(fst, snd)``.  Being a tuple, a vector of
    pairs is built and taken apart in C (``zipt``, ``unzipt``); a plain
    tuple compares equal to it, but is not a pair value (``conforms``)."""

    __slots__ = ()

    def __new__(cls, fst: "Value", snd: "Value"):
        return tuple.__new__(cls, (fst, snd))

    def __getnewargs__(self):  # copy and pickle call __new__ with these
        return tuple(self)

    fst = property(operator.itemgetter(0))
    snd = property(operator.itemgetter(1))

    def __repr__(self):
        return f"TupVal(fst={self[0]!r}, snd={self[1]!r})"


Value = Union[int, VecVal, TupVal]


def vv(*items: Value) -> VecVal:
    return VecVal(tuple(items))


def conforms(v: Value, t: VecType) -> bool:
    """Structural match of a value against a type; any atom admits a scalar."""
    return leaf_columns(v, t) is not None


# A value's leaf columns: one tuple of ints per atom of its type.
Columns = tuple[tuple[int, ...], ...]


def leaf_columns(v: Value, t: VecType) -> Optional[Columns]:
    """The leaf columns of ``v`` at type t, or ``None`` when v does not
    conform to t.  Each atom of t, first to last, gives the tuple of the
    leaves it holds, in leaf order; a pair gives its first part's columns,
    then its second's."""
    return _nodes_columns((v,), t)


def _nodes_columns(nodes, t: VecType) -> Optional[Columns]:
    """The leaf columns of ``nodes`` at type t, each node's leaves after the
    last's, walked one vector level at a time; only a pair recurses, once
    per component.  ``None`` when a node does not conform to t."""
    while isinstance(t, Vec):
        n = t.size
        for x in nodes:
            if not isinstance(x, VecVal) or len(x.items) != n:
                return None
        nodes = list(chain.from_iterable([x.items for x in nodes]))
        t = t.element
    if isinstance(t, Pair):
        if not _all_of(nodes, TupVal):
            return None
        firsts, seconds = _columns(nodes)
        fst = _nodes_columns(firsts, t.fst)
        snd = None if fst is None else _nodes_columns(seconds, t.snd)
        return None if snd is None else fst + snd
    return (tuple(nodes),) if _all_of(nodes, int) else None


def _all_of(xs, cls: type) -> bool:
    """Whether each of ``xs`` is exactly a ``cls``: a ``bool`` is no ``int``."""
    return set(map(type, xs)) <= {cls}


def _columns(pairs) -> tuple[tuple[Value, ...], tuple[Value, ...]]:
    """The first and the second parts of ``pairs``, each in order."""
    return tuple(zip(*pairs)) or ((), ())


LEAF_MIN, LEAF_MAX = -99, 99
# A draw indexes this tuple rather than adding LEAF_MIN: every value then
# shares these int objects, where a sum below -5 would be a new one per leaf.
_LEAVES = tuple(range(LEAF_MIN, LEAF_MAX + 1))
_REJECTED = bytes(range(len(_LEAVES), 256))  # the 8-bit draws randint rejects
_BATCH_WORDS = 2**16  # the most words one getrandbits call takes


def random_value(t: VecType, rng: random.Random) -> Value:
    """A value of type t with leaves drawn from [LEAF_MIN, LEAF_MAX].  Past
    ``MAX_LEAVES`` leaves it raises ``ShapeError``, before any draw.

    The leaves are those of one ``randint(LEAF_MIN, LEAF_MAX)`` per leaf,
    first to last, and ``rng`` is left in the same state.  In CPython that
    ``randint`` draws ``getrandbits(8)`` until it is in range, and
    ``getrandbits(8)`` is the top byte of one 32-bit Mersenne Twister word;
    ``getrandbits(32 * m)`` is the next m words, the first least significant.
    So a round takes the top bytes of one such call and drops the rejected
    ones in C.  It asks for as many words as leaves are missing, at most
    ``_BATCH_WORDS``: a word gives at most one leaf, so no word is taken that
    per-leaf ``randint`` would not take."""
    n = _leaf_count(t)
    if n > MAX_LEAVES:
        raise ShapeError(f"a random value may have at most MAX_LEAVES = {MAX_LEAVES} leaves")
    kept = bytearray()
    while len(kept) < n:
        m = min(n - len(kept), _BATCH_WORDS)
        kept += rng.getrandbits(32 * m).to_bytes(4 * m, "little")[3::4].translate(None, _REJECTED)
    # A trailing index keeps a tuple at n = 1; _build takes only the first n.
    return _build(t, iter(operator.itemgetter(*kept, 0)(_LEAVES)))


def _leaf_count(t: VecType) -> int:
    """The leaves of a value of type t, counting both parts of a pair."""
    if isinstance(t, Pair):
        return _leaf_count(t.fst) + _leaf_count(t.snd)
    return t.size * _leaf_count(t.element) if isinstance(t, Vec) else 1


def _build(t: VecType, leaves) -> Value:
    """The value of type t whose leaves, first to last, are taken from the
    iterator ``leaves``."""
    if isinstance(t, Atom):
        return next(leaves)
    if isinstance(t, Pair):
        return TupVal(_build(t.fst, leaves), _build(t.snd, leaves))
    sizes, e = [], t  # the spine of t, outermost first, and its element
    while isinstance(e, Vec):
        sizes.append(e.size)
        e = e.element
    count = prod(sizes)
    if isinstance(e, Atom):
        nodes = tuple(islice(leaves, count))
    else:
        nodes = tuple([_build(e, leaves) for _ in range(count)])
    return _regroup(nodes, reversed(sizes))


# ---------------------------------------------------------------------------
# Value-level operations


def reshape_to(k: int, v: Value) -> Value:
    """Chunk a vector into groups of k, preserving element order."""
    return _step_fn(Increase(k))(v)


def reshape_from(k: int, v: Value) -> Value:
    """Concatenate uniform chunks of length k back into a flat vector."""
    return _step_fn(Decrease(k))(v)


def _step_fn(step: Step) -> Callable[[Value], Value]:
    """A step on values, its transform worked out once.  As in
    ``step_apply``, each component must be a vector: on a leaf, ``R`` and
    ``M`` are identities and the step would be lost."""
    tr = step_transform(step)
    message = f"{print_step(step)} needs a vector value"

    def run(v):
        for part in (v.fst, v.snd) if isinstance(v, TupVal) else (v,):
            if not isinstance(part, VecVal):
                raise ShapeError(message)
        return apply_transform_value(tr, v)

    return run


def to_vector(k: int, v: Value) -> VecVal:
    """k copies of v."""
    return VecVal((v,) * k)


def from_vector(v: Value) -> Value:
    """Head of a non-empty vector."""
    if not isinstance(v, VecVal) or not v.items:
        raise ShapeError("fromVector needs a non-empty vector")
    return v.items[0]


def zipt(v: Value) -> VecVal:
    """Pair of equal-length vectors -> vector of pairs."""
    if not isinstance(v, TupVal) or not isinstance(v.fst, VecVal) or not isinstance(v.snd, VecVal):
        raise ShapeError("zipt needs a pair of vectors")
    if len(v.fst.items) != len(v.snd.items):
        raise LengthMismatchError(
            f"zipt: lengths {len(v.fst.items)} and {len(v.snd.items)} differ"
        )
    return VecVal(tuple(map(tuple.__new__, repeat(TupVal), zip(v.fst.items, v.snd.items))))


def unzipt(v: Value) -> TupVal:
    """Vector of pairs -> pair of vectors."""
    if not isinstance(v, VecVal) or not _all_of(v.items, TupVal):
        raise ShapeError("unzipt needs a vector of pairs")
    firsts, seconds = _columns(v.items)
    return TupVal(VecVal(firsts), VecVal(seconds))


def apply_transform_value(tr: Transform, v: Value) -> Value:
    """Reshape a value: flatten the leaves, rebuild at the target type.

    The sizes of ``v`` are read off its first-element spine, and the target
    sizes are those of ``apply_transform(tr, ...)`` on them, so the type
    algebra alone says what ``S``, ``R`` and ``M`` do.  The longest innermost
    run of sizes that source and target share is kept as opaque leaves; every
    vector above it is checked, and a ragged one raises ``ShapeError``.

    As at the type level, only a top-level pair is split; a pair that is the
    element of a vector is a leaf."""
    if isinstance(v, TupVal):
        return TupVal(apply_transform_value(tr, v.fst), apply_transform_value(tr, v.snd))
    sizes = []  # outermost first
    x = v
    while isinstance(x, VecVal):
        if not x.items:
            raise ShapeError("empty vector has no shape")
        sizes.append(len(x.items))
        x = x.items[0]
    unfold, rebuild = _reshape_plan(tr, tuple(sizes))
    leaves = (v,)
    for n in unfold:
        level = []
        for x in leaves:
            if not isinstance(x, VecVal) or len(x.items) != n:
                raise ShapeError(f"ragged value: expected a vector of length {n}")
            level += x.items
        leaves = tuple(level)
    return _regroup(leaves, rebuild)


def _regroup(nodes: tuple, sizes) -> Value:
    """The value whose nodes ``len(sizes)`` vector levels down are ``nodes``,
    first to last, with the vector lengths ``sizes``, innermost first."""
    for n in sizes:
        nodes = tuple([VecVal(nodes[i : i + n]) for i in range(0, len(nodes), n)])
    return nodes[0]


@lru_cache(maxsize=1024)
def _reshape_plan(tr: Transform, sizes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For a value of outermost-first ``sizes``, the sizes to unfold it by,
    outermost first, and to rebuild its leaves at, innermost first.  The
    innermost run of sizes it shares with its image under tr is left out."""
    dims = sizes[::-1]
    target = dims_of(apply_transform(tr, from_dims(Atom("_"), dims)))
    shared = 0
    while shared < min(len(dims), len(target)) and dims[shared] == target[shared]:
        shared += 1
    return sizes[: len(sizes) - shared], target[shared:]


# ---------------------------------------------------------------------------
# Value literals


def print_value(v: Value) -> str:
    if type(v) is int:
        try:
            return str(v)
        except ValueError as e:  # more digits than str() converts
            raise ShapeError(f"cannot print the integer: {e}") from None
    if isinstance(v, TupVal):
        return f"({print_value(v.fst)},{print_value(v.snd)})"
    return "[" + ",".join(print_value(item) for item in v.items) + "]"


_SPACE = re.compile(r"\s*")  # what str.isspace() calls space
_INT = re.compile(r"-?\d+")  # \d is what str.isdecimal() accepts
# A vector of plain integers, if int() reads each of its pieces: of "-",
# digits and ",", int() reads exactly -?\d+.  A class, not a repeated group,
# so that matching keeps no state per item.
_RUN = re.compile(r"\[([-\d,]+)\]")


def parse_value(text: str) -> Value:
    """The value a literal denotes, as ``print_value`` writes it; space may
    stand between any two of its tokens.  It is read in one pass with an
    explicit stack, so depth costs no recursion, and a vector of plain
    integers with no space in it is read as one token."""
    stack: list[tuple[str, list[Value]]] = []  # open literals: closing bracket, items so far
    pos = 0
    while True:
        v, pos = _read_value(text, pos, stack)
        while v is not None:  # v is whole: it is an item of the innermost open literal
            if not stack:
                pos = _SPACE.match(text, pos).end()
                if pos != len(text):
                    raise ParseError("trailing input after value", column=pos + 1)
                return v
            close, items = stack[-1]
            items.append(v)
            pos = _SPACE.match(text, pos).end()
            sep = text[pos : pos + 1]
            if sep == "," and (close == "]" or len(items) == 1):
                v = None  # another item follows
            elif close == "]":
                if sep != "]":
                    raise ParseError("expected , or ] in vector literal", column=pos + 1)
                v = VecVal(tuple(items))
                stack.pop()
            elif len(items) == 1:
                raise ParseError("expected , in pair literal", column=pos + 1)
            elif sep != ")":
                raise ParseError("expected ) in pair literal", column=pos + 1)
            else:
                v = TupVal(*items)
                stack.pop()
            pos += 1


def _read_value(text: str, pos: int, stack: list) -> tuple[Optional[Value], int]:
    """Read the start of a value at ``pos``: a whole integer, empty vector
    or vector of plain integers, or else the bracket opening a literal,
    pushed on ``stack`` and read as ``None``."""
    pos = _SPACE.match(text, pos).end()
    if pos >= len(text):
        raise ParseError("expected a value", column=pos + 1)
    ch = text[pos]
    if ch == "(" or ch == "[":
        check_nesting(len(stack) + 1, pos + 1)
        if ch == "[":
            run = _RUN.match(text, pos)
            if run is not None:
                try:  # through a list: a tuple of an iterator can keep a block too big
                    return VecVal(tuple(list(map(int, run[1].split(","))))), run.end()
                except ValueError:  # not integers, or one too long: read one by one for the error
                    pass
            end = _SPACE.match(text, pos + 1).end()
            if text.startswith("]", end):
                return VecVal(()), end + 1
        stack.append(("]" if ch == "[" else ")", []))
        return None, pos + 1
    m = _INT.match(text, pos)
    if m is None:
        raise ParseError(f"unexpected character {ch!r} in value", column=pos + 1)
    try:
        return int(m[0]), m.end()
    except ValueError as e:  # more digits than int() converts
        raise ParseError(f"integer too long: {e}", column=pos + 1) from None


# ---------------------------------------------------------------------------
# Primitive library


def _class_error(cls: type) -> ShapeError:
    name = {int: "scalar", VecVal: "vector", TupVal: "pair"}[cls]
    return ShapeError(f"primitive expected a {name} argument")


def _sum(xs: VecVal) -> int:
    if not _all_of(xs.items, int):
        raise _class_error(int)
    return sum(xs.items)


def _add_head(acc, chunk: VecVal) -> int:
    # Chunk-sensitive fold step: only the head of each chunk contributes.
    if not chunk.items:
        raise ShapeError("add_head needs a non-empty chunk")
    head = chunk.items[0]
    if type(acc) is not int or type(head) is not int:
        raise _class_error(int)
    return acc + head


# The signature of each primitive: the type it returns on arguments of the
# given types, or a ShapeError saying what it needs.


def _needs(what: str, t: VecType) -> ShapeError:
    """The error of a primitive that needs ``what`` and is given t."""
    return ShapeError(f"needs {what}, got {print_type(t)}")


def _atoms_type(*args: VecType) -> VecType:
    """``a -> a`` and ``a -> a -> a``."""
    for t in args:
        if type(t) is not Atom:
            raise _needs("an atom", t)
    return args[0]


def _sum_type(xs: VecType) -> VecType:
    """``[a]<k> -> a``."""
    if type(xs) is not Vec or type(xs.element) is not Atom:
        raise _needs("a vector of atoms", xs)
    return xs.element


def _reverse_type(xs: VecType) -> VecType:
    """``[t]<k> -> [t]<k>``."""
    if type(xs) is not Vec:
        raise _needs("a vector", xs)
    return xs


def _add_head_type(acc: VecType, xs: VecType) -> VecType:
    """``a -> [a]<k> -> a``."""
    _atoms_type(acc)
    _sum_type(xs)
    return acc


def _swap_type(t: VecType) -> VecType:
    """``(t,u) -> (u,t)``."""
    if type(t) is not Pair:
        raise _needs("a pair", t)
    return Pair(t.snd, t.fst)


def _zipt_type(t: VecType) -> VecType:
    """``([t]<n>,[u]<n>) -> [(t,u)]<n>``."""
    if type(t) is not Pair or type(t.fst) is not Vec or type(t.snd) is not Vec:
        raise _needs("a pair of vectors", t)
    if t.fst.size != t.snd.size:
        raise ShapeError(f"needs equal lengths, got {t.fst.size} and {t.snd.size}")
    return Vec(t.fst.size, Pair(t.fst.element, t.snd.element))


def _unzipt_type(t: VecType) -> VecType:
    """``[(t,u)]<n> -> ([t]<n>,[u]<n>)``."""
    if type(t) is not Vec or type(t.element) is not Pair:
        raise _needs("a vector of pairs", t)
    return Pair(Vec(t.size, t.element.fst), Vec(t.size, t.element.snd))


# name -> (argument classes, plain operation, signature).  A class is None
# where the operation checks the argument itself.  A two-argument primitive
# returns a value of its accumulator's class, so a plain fold stays plain.
_TABLE: dict[str, tuple[tuple[Optional[type], ...], Callable[..., Value], Callable]] = {
    "add1": ((int,), lambda x: x + 1, _atoms_type),
    "mul3": ((int,), lambda x: x * 3, _atoms_type),
    "negate": ((int,), operator.neg, _atoms_type),
    "add": ((int, int), operator.add, _atoms_type),
    "mul": ((int, int), operator.mul, _atoms_type),
    "max": ((int, int), lambda acc, x: x if x > acc else acc, _atoms_type),
    # Non-commutative on purpose: order bugs change the result.
    "dec_shift": ((int, int), lambda acc, x: 10 * acc + x, _atoms_type),
    "sum": ((VecVal,), _sum, _sum_type),
    "reverse": ((VecVal,), lambda xs: VecVal(xs.items[::-1]), _reverse_type),
    "swap": ((TupVal,), lambda t: tuple.__new__(TupVal, t[::-1]), _swap_type),
    "add_head": ((None, VecVal), _add_head, _add_head_type),
    "zipt": ((None,), zipt, _zipt_type),
    "unzipt": ((None,), unzipt, _unzipt_type),
}


def primitive_type(name: str, args: tuple[VecType, ...]) -> VecType:
    """The type primitive ``name`` returns on arguments of the types
    ``args``, one per argument; a ``ShapeError`` says what it needs where it
    cannot take them.  Atoms are labels: the result may name other atoms."""
    return _TABLE[name][2](*args)


def _guard(classes: tuple[Optional[type], ...], op: Callable[..., Value]) -> Callable[..., Value]:
    """``op`` with each argument checked against its class, first to last."""

    def call(*args):
        for x, cls in zip(args, classes):
            if cls is not None and type(x) is not cls:
                raise _class_error(cls)
        return op(*args)

    return call


PRIMITIVES: dict[str, tuple[int, Callable[..., Value]]] = {
    name: (len(classes), _guard(classes, op)) for name, (classes, op, _) in _TABLE.items()
}

# A checked primitive -> its argument classes and plain operation.
_PLAIN = {PRIMITIVES[name][1]: row[:2] for name, row in _TABLE.items()}


# ---------------------------------------------------------------------------
# Compiler


def _raises(cls: type, message: str) -> Callable[..., Value]:
    """A closure that raises ``cls(message)`` whenever it is called, so that
    a fault found while compiling surfaces only when evaluation reaches it."""

    def fail(*args):
        raise cls(message)

    return fail


def compile_program(program) -> Callable[[Value], Value]:
    """Compile a pipeline into one closure from input value to result.

    The stages and the function table are walked once: each function becomes
    a closure, compiled once per name and shared by every stage and wrapper
    that calls it, and each stage a closure over them.  The closure checks
    that its input conforms to the program's input type.  What the compiler
    finds wrong (a missing body, an unknown primitive or function, a call
    with the wrong number of arguments) becomes a closure that raises its
    error when evaluation reaches it, and not before."""
    from .program_ir import (
        ElementwiseDef,
        FoldOfDef,
        FoldStage,
        MapStage,
        PrimDef,
        ReshapeStage,
        UnziptStage,
        WrapElemDef,
        WrapFoldDef,
        ZiptStage,
    )

    fns = program.fns
    compiled: dict[str, tuple[Optional[int], Callable[..., Value]]] = {}
    compiling: set[str] = set()

    def call(name: str, nargs: int) -> Callable[..., Value]:
        """The closure for calling function ``name`` with ``nargs`` arguments."""
        if name not in fns:
            return _raises(KeyError, name)
        if name in compiling:  # a cycle: look the closure up when it is called
            return lambda *args: call(name, nargs)(*args)
        if name not in compiled:
            compiling.add(name)
            compiled[name] = body(fns[name])
            compiling.discard(name)
        arity, f = compiled[name]
        if arity is None or arity == nargs:
            return f
        d = fns[name].defn
        what = f"primitive {d.prim}" if isinstance(d, PrimDef) else f"function {name}"
        return _raises(ShapeError, f"{what} takes {arity} arguments, got {nargs}")

    def body(fn) -> tuple[Optional[int], Callable[..., Value]]:
        """A function's arity and closure; ``None`` when every call fails."""
        d = fn.defn
        if d is None:
            message = f"function {fn.name} has no executable body"
            return None, _raises(MissingPrimitiveError, message)
        if isinstance(d, PrimDef):
            if d.prim not in PRIMITIVES:
                return None, _raises(MissingPrimitiveError, f"unknown primitive {d.prim!r}")
            return PRIMITIVES[d.prim]
        if isinstance(d, ElementwiseDef):
            return 1, _map_levels(call(d.fn, 1), 1)
        if isinstance(d, FoldOfDef):
            return 2, _fold_levels(call(d.fn, 2), 1)
        if isinstance(d, WrapElemDef):
            h, k = call(d.fn, 1), d.k
            return 1, lambda x: from_vector(h(to_vector(k, x)))
        if isinstance(d, WrapFoldDef):
            h, k = call(d.fn, 2), d.k
            return 2, lambda acc, x: h(acc, to_vector(k, x))
        return None, _raises(TypeError, f"unknown definition {d!r}")

    def stage(s) -> Callable[[Value], Value]:
        if isinstance(s, MapStage):
            levels, base = _unnest(fns, s.fn, ElementwiseDef)
            return _map_levels(call(base, 1), levels)
        if isinstance(s, FoldStage):
            levels, base = _unnest(fns, s.fn, FoldOfDef)
            fold, acc = _fold_levels(call(base, 2), levels), s.acc
            return lambda v: fold(acc, v)
        if isinstance(s, ZiptStage):
            return zipt
        if isinstance(s, UnziptStage):
            return unzipt
        if isinstance(s, ReshapeStage):
            return _step_fn(s.step)
        return _raises(TypeError, f"unknown stage {s!r}")

    run = _chain([stage(s) for _, s in program.stages])
    input_type = program.input_type

    def run_program(v: Value) -> Value:
        if not conforms(v, input_type):
            raise ShapeError(f"input value does not conform to {print_type(input_type)}")
        return run(v)

    return run_program


def _unnest(fns: dict, name: str, kind: type) -> tuple[int, str]:
    """The vector levels a stage over function ``name`` unfolds (one, plus one
    per ``kind`` definition it is nested in) and the base function it reaches.
    A cycle stops at the first name seen twice, which then recurses."""
    levels, seen = 1, set()
    while name in fns and isinstance(fns[name].defn, kind) and name not in seen:
        seen.add(name)
        name, levels = fns[name].defn.fn, levels + 1
    return levels, name


def _map_levels(h: Callable[[Value], Value], levels: int) -> Callable[[Value], Value]:
    """``map`` nested ``levels`` deep: ``h`` applied to every node ``levels``
    vector levels down, in one pass over the flat node list, and the result
    rebuilt at the same lengths.  A checked primitive runs plain after one
    class check of the nodes; when that fails, the checked ``h`` runs on each
    node in turn and raises what a direct call raises."""
    (cls,), op = _PLAIN.get(h, ((None,), h))

    def run(v):
        nodes, lengths = _unfold(v, levels)
        outs = tuple(map(op if cls is None or _all_of(nodes, cls) else h, nodes))
        for ns in reversed(lengths):
            ends = list(accumulate(ns))
            outs = tuple([VecVal(outs[e - n : e]) for n, e in zip(ns, ends)])
        return outs[0]

    return run


def _fold_levels(
    h: Callable[[Value, Value], Value], levels: int
) -> Callable[[Value, Value], Value]:
    """``acc, v -> foldl h acc nodes`` over the nodes ``levels`` vector levels
    down in ``v``: ``foldof`` nested in a fold is a fold of the flat nodes,
    since ``S``, ``R`` and ``M`` never reorder leaves.  A checked primitive
    runs plain after one class check of the accumulator and the nodes, and
    checked, step by step, when that fails."""
    (acc_cls, cls), op = _PLAIN.get(h, ((None, None), h))

    def run(acc, v):
        nodes, _ = _unfold(v, levels)
        plain = (acc_cls is None or type(acc) is acc_cls) and (cls is None or _all_of(nodes, cls))
        return reduce(op if plain else h, nodes, acc)

    return run


def _unfold(v: Value, levels: int) -> tuple[list[Value], list[list[int]]]:
    """The nodes ``levels`` vector levels down in ``v``, in leaf order, and
    the lengths of the vectors at each level, outermost first.  Each level is
    checked once to hold only vectors."""
    nodes, lengths = [v], []
    for _ in range(levels):
        for x in nodes:
            if not isinstance(x, VecVal):
                raise ShapeError("primitive expected a vector argument")
        lengths.append([len(x.items) for x in nodes])
        nodes = list(chain.from_iterable([x.items for x in nodes]))
    return nodes, lengths


def _chain(fs: list[Callable[[Value], Value]]) -> Callable[[Value], Value]:
    """The composition of ``fs``, first to last."""

    def chain(v):
        for f in fs:
            v = f(v)
        return v

    return chain


def compile_columns(typed) -> Optional[Callable[[Columns], Columns]]:
    """Compile a typed pipeline, as ``typecheck`` gives it, into one closure
    from the leaf columns of its input to those of its result, or ``None``
    when a stage has no column rule.

    A reshape, ``zipt`` or ``unzipt`` stage moves no leaf, so it runs as
    nothing.  A ``map`` or ``foldl`` stage reaches its base function through
    its chain of ``elementwise`` or ``foldof`` definitions, and the base's
    ``_TABLE`` row gives the rule.  A ``map`` of a scalar primitive maps its
    plain operation over the one column; a ``map`` of ``swap`` puts the
    columns of the pair's second part before those of its first; a ``map``
    of ``zipt`` or ``unzipt`` runs as nothing.  A ``foldl`` of a scalar step
    is one ``reduce`` of the column.  ``typecheck`` admits a primitive only at
    a signature its row gives, so the closure returns the columns of what
    ``compile_program`` returns on the same input."""
    from .program_ir import ElementwiseDef, FoldOfDef, FoldStage, MapStage, PrimDef

    fns = typed.program.fns
    runs: list[Callable[[Columns], Columns]] = []
    for _, s in typed.program.stages:
        if not isinstance(s, (MapStage, FoldStage)):
            continue
        fold = isinstance(s, FoldStage)
        _, base = _unnest(fns, s.fn, FoldOfDef if fold else ElementwiseDef)
        fn = fns[base]
        if not isinstance(fn.defn, PrimDef) or fn.defn.prim not in _TABLE:
            return None
        prim = fn.defn.prim
        classes, op, _ = _TABLE[prim]
        if fold:
            if classes != (int, int):
                return None
            runs.append(lambda cols, op=op, acc=s.acc: ((reduce(op, cols[0], acc),),))
        elif classes == (int,):
            runs.append(lambda cols, op=op: (tuple(map(op, cols[0])),))
        elif prim == "swap":
            n = _atoms(fn.sig.args[0].fst)
            runs.append(lambda cols, n=n: cols[n:] + cols[:n])
        elif prim not in ("zipt", "unzipt"):
            return None
    return _chain(runs)


def _atoms(t: VecType) -> int:
    """The atoms of t, one leaf column each."""
    t = leaf_of(t)
    return _atoms(t.fst) + _atoms(t.snd) if isinstance(t, Pair) else 1


def eval_program(program, v: Value) -> Value:
    """Run a pipeline on an input value; the semantic oracle for derivations.
    The program is compiled (``compile_program``) and then run."""
    return compile_program(program)(v)
