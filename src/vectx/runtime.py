"""Nested vector values, runtime combinators, and the reference evaluator.

Values mirror types: a scalar is a plain Python ``int`` (its type exactly:
a ``bool`` would print as ``True``), a pair a ``TupVal`` and a vector a
``VecVal`` of uniformly shaped ``items``.  A vector stays a dataclass with an
``items`` tuple, not a bare tuple or a flat leaf buffer, because callers
rebuild one with ``dataclasses.replace(v, items=...)``.  Everything here is a
pure function over immutable values, and comparisons of Python integers are
exact, so semantic-preservation checks are bit-exact.

A value reshape is "flatten the leaves, rebuild at the target type".  ``S``,
``R`` and ``M`` re-partition the ordered leaves without reordering them, so
``apply_transform_value`` reads the sizes of a value, takes the target sizes
from ``type_algebra.apply_transform`` and regroups the same leaves at them.
It is the one value-level reshape: ``reshape_to``/``reshape_from`` are the
``Increase``/``Decrease`` steps run through it, and the reshape stages of a
program are typed by the same steps (``program_ir.stage_output_type``).
There is no per-operation value interpreter and no reshape arithmetic in the
stage typing: ``type_algebra`` is the only statement of what each operation
does.

``V`` is type-level only: replication and projection are not reshapes.  The
``to_vector``/``from_vector`` combinators replicate and project for the
``wrapelem``/``wrapfold`` functions, and ``zipt``/``unzipt`` convert between
a pair of vectors and a vector of pairs.

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
(or none, where the operation checks it itself) and the plain operation.
``PRIMITIVES`` checks the classes first to last on every call.  A ``map`` or
``foldl`` pass checks them once per level and runs the plain operation on
every node; if that check fails, it calls the checked primitive node by
node, so it raises what a direct call raises.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, chain
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
    print_op,
    print_step,
    print_type,
    step_transform,
    wrap_op,
)

# ---------------------------------------------------------------------------
# Values


@dataclass(frozen=True)
class VecVal:
    items: tuple["Value", ...]

    def __len__(self):
        return len(self.items)


@dataclass(frozen=True)
class TupVal:
    fst: "Value"
    snd: "Value"


Value = Union[int, VecVal, TupVal]


def vv(*items: Value) -> VecVal:
    return VecVal(tuple(items))


def conforms(v: Value, t: VecType) -> bool:
    """Structural match of a value against a type; any atom admits a scalar."""
    return _all_conform([v], t)


def _all_conform(nodes: list[Value], t: VecType) -> bool:
    """Whether every one of ``nodes`` conforms to t, checked one vector level
    at a time; only a pair recurses, once per component."""
    while isinstance(t, Vec):
        n = t.size
        for x in nodes:
            if not isinstance(x, VecVal) or len(x.items) != n:
                return False
        nodes = list(chain.from_iterable([x.items for x in nodes]))
        t = t.element
    if isinstance(t, Pair):
        return (
            _all_of(nodes, TupVal)
            and _all_conform([x.fst for x in nodes], t.fst)
            and _all_conform([x.snd for x in nodes], t.snd)
        )
    return _all_of(nodes, int)


def _all_of(xs, cls: type) -> bool:
    """Whether each of ``xs`` is exactly a ``cls``: a ``bool`` is no ``int``."""
    return set(map(type, xs)) <= {cls}


def random_value(t: VecType, rng: random.Random, lo: int = -99, hi: int = 99) -> Value:
    """A value of type t with leaves drawn from [lo, hi].  Past ``MAX_LEAVES``
    leaves it raises ``ShapeError``, before any draw."""
    if _leaf_count(t) > MAX_LEAVES:
        raise ShapeError(f"a random value may have at most MAX_LEAVES = {MAX_LEAVES} leaves")
    return _random_value(t, rng, lo, hi)


def _leaf_count(t: VecType) -> int:
    """The leaves of a value of type t, counting both parts of a pair."""
    if isinstance(t, Pair):
        return _leaf_count(t.fst) + _leaf_count(t.snd)
    return t.size * _leaf_count(t.element) if isinstance(t, Vec) else 1


def _random_value(t: VecType, rng: random.Random, lo: int, hi: int) -> Value:
    if isinstance(t, Atom):
        return rng.randint(lo, hi)
    if isinstance(t, Pair):
        return TupVal(_random_value(t.fst, rng, lo, hi), _random_value(t.snd, rng, lo, hi))
    if isinstance(t.element, Atom):
        randint = rng.randint
        return VecVal(tuple([randint(lo, hi) for _ in range(t.size)]))
    return VecVal(tuple([_random_value(t.element, rng, lo, hi) for _ in range(t.size)]))


# ---------------------------------------------------------------------------
# Combinators


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
    return VecVal(tuple(TupVal(x, y) for x, y in zip(v.fst.items, v.snd.items)))


def unzipt(v: Value) -> TupVal:
    """Vector of pairs -> pair of vectors."""
    if not isinstance(v, VecVal):
        raise ShapeError("unzipt needs a vector of pairs")
    firsts, seconds = [], []
    for item in v.items:
        if not isinstance(item, TupVal):
            raise ShapeError("unzipt needs a vector of pairs")
        firsts.append(item.fst)
        seconds.append(item.snd)
    return TupVal(VecVal(tuple(firsts)), VecVal(tuple(seconds)))


def apply_transform_value(tr: Transform, v: Value) -> Value:
    """Reshape a value: flatten the leaves, rebuild at the target type.

    The sizes of ``v`` are read off its first-element spine, and the target
    sizes are those of ``apply_transform(tr, ...)`` on them, so the type
    algebra alone says what ``S``, ``R`` and ``M`` do.  The longest innermost
    run of sizes that source and target share is kept as opaque leaves; every
    vector above it is checked, and a ragged one raises ``ShapeError``.

    As at the type level, only a top-level pair is split; a pair that is the
    element of a vector is a leaf.  ``V`` is type-level only: it replicates
    and projects, which is not a reshape, so a transform using it raises
    ``ShapeError``."""
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
    for n in rebuild:
        leaves = tuple([VecVal(leaves[i : i + n]) for i in range(0, len(leaves), n)])
    return leaves[0]


@lru_cache(maxsize=1024)
def _reshape_plan(tr: Transform, sizes: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For a value of outermost-first ``sizes``, the sizes to unfold it by,
    outermost first, and to rebuild its leaves at, innermost first.  The
    innermost run of sizes it shares with its image under tr is left out."""
    op = wrap_op(tr)
    if op is not None:
        raise ShapeError(f"{print_op(op)} replicates or projects; a value can only be reshaped")
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


def parse_value(text: str) -> Value:
    v, pos = _parse_value(text, 0)
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos != len(text):
        raise ParseError("trailing input after value", column=pos + 1)
    return v


def _parse_value(text: str, pos: int, depth: int = 0) -> tuple[Value, int]:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text):
        raise ParseError("expected a value", column=pos + 1)
    ch = text[pos]
    if ch == "[":
        check_nesting(depth + 1, pos + 1)
        pos += 1
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos < len(text) and text[pos] == "]":
            return VecVal(()), pos + 1
        items = []
        while True:  # after a comma comes an item, so "[1,]" is an error at its "]"
            item, pos = _parse_value(text, pos, depth + 1)
            items.append(item)
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos < len(text) and text[pos] == ",":
                pos += 1
            elif pos < len(text) and text[pos] == "]":
                return VecVal(tuple(items)), pos + 1
            else:
                raise ParseError("expected , or ] in vector literal", column=pos + 1)
    if ch == "(":
        check_nesting(depth + 1, pos + 1)
        fst, pos = _parse_value(text, pos + 1, depth + 1)
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text) or text[pos] != ",":
            raise ParseError("expected , in pair literal", column=pos + 1)
        snd, pos = _parse_value(text, pos + 1, depth + 1)
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos >= len(text) or text[pos] != ")":
            raise ParseError("expected ) in pair literal", column=pos + 1)
        return TupVal(fst, snd), pos + 1
    start = pos
    if ch == "-":
        pos += 1
    while pos < len(text) and text[pos].isdecimal():
        pos += 1
    if pos == start or text[start:pos] == "-":
        raise ParseError(f"unexpected character {ch!r} in value", column=start + 1)
    try:
        return int(text[start:pos]), pos
    except ValueError as e:  # more digits than int() converts
        raise ParseError(f"integer too long: {e}", column=start + 1) from None


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


# name -> (argument classes, plain operation).  A two-argument primitive
# returns a value of its accumulator's class, so a plain fold stays plain.
_TABLE: dict[str, tuple[tuple[Optional[type], ...], Callable[..., Value]]] = {
    "add1": ((int,), lambda x: x + 1),
    "mul3": ((int,), lambda x: x * 3),
    "negate": ((int,), operator.neg),
    "add": ((int, int), operator.add),
    "mul": ((int, int), operator.mul),
    "max": ((int, int), lambda acc, x: x if x > acc else acc),
    # Non-commutative on purpose: order bugs change the result.
    "dec_shift": ((int, int), lambda acc, x: 10 * acc + x),
    "sum": ((VecVal,), _sum),
    "reverse": ((VecVal,), lambda xs: VecVal(xs.items[::-1])),
    "swap": ((TupVal,), lambda t: TupVal(t.snd, t.fst)),
    "add_head": ((None, VecVal), _add_head),
    "zipt": ((None,), zipt),
    "unzipt": ((None,), unzipt),
}


def _guard(classes: tuple[Optional[type], ...], op: Callable[..., Value]) -> Callable[..., Value]:
    """``op`` with each argument checked against its class, first to last."""

    def call(*args):
        for x, cls in zip(args, classes):
            if cls is not None and type(x) is not cls:
                raise _class_error(cls)
        return op(*args)

    return call


PRIMITIVES: dict[str, tuple[int, Callable[..., Value]]] = {
    name: (len(classes), _guard(classes, op)) for name, (classes, op) in _TABLE.items()
}

# A checked primitive -> its argument classes and plain operation.
_PLAIN = {PRIMITIVES[name][1]: entry for name, entry in _TABLE.items()}


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
        ComposedStage,
        ElementwiseDef,
        FoldOfDef,
        FoldStage,
        MapStage,
        PrimDef,
        ReshapeFromStage,
        ReshapeToStage,
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
            return None, _raises(MissingPrimitiveError, f"function {fn.name} has no executable body")
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

    def unnest(name: str, kind: type) -> tuple[int, str]:
        """The vector levels a stage over ``name`` unfolds (one, plus one per
        ``kind`` definition it is nested in) and the base function it reaches.
        A cycle stops at the first name seen twice, which then recurses."""
        levels, seen = 1, set()
        while name in fns and isinstance(fns[name].defn, kind) and name not in seen:
            seen.add(name)
            name, levels = fns[name].defn.fn, levels + 1
        return levels, name

    def stage(s) -> Callable[[Value], Value]:
        if isinstance(s, MapStage):
            levels, base = unnest(s.fn, ElementwiseDef)
            return _map_levels(call(base, 1), levels)
        if isinstance(s, FoldStage):
            levels, base = unnest(s.fn, FoldOfDef)
            fold, acc = _fold_levels(call(base, 2), levels), s.acc
            return lambda v: fold(acc, v)
        if isinstance(s, ZiptStage):
            return zipt
        if isinstance(s, UnziptStage):
            return unzipt
        if isinstance(s, ReshapeToStage):
            return _step_fn(Increase(s.k))
        if isinstance(s, ReshapeFromStage):
            return _step_fn(Decrease(s.k))
        if isinstance(s, ComposedStage):
            return _chain([stage(sub) for sub in s.stages])
        return _raises(TypeError, f"unknown stage {s!r}")

    run = _chain([stage(s) for _, s in program.stages])
    input_type = program.input_type

    def run_program(v: Value) -> Value:
        if not conforms(v, input_type):
            raise ShapeError(f"input value does not conform to {print_type(input_type)}")
        return run(v)

    return run_program


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


def _fold_levels(h: Callable[[Value, Value], Value], levels: int) -> Callable[[Value, Value], Value]:
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


def eval_program(program, v: Value) -> Value:
    """Run a pipeline on an input value; the semantic oracle for derivations.
    The program is compiled (``compile_program``) and then run."""
    return compile_program(program)(v)
