"""Seeded random generators shared by the property and acceptance tests."""

import random

from vectx.errors import ShapeError
from vectx.program_ir import UnziptStage, ZiptStage, stage_output_type
from vectx.runtime import LEAF_MAX, LEAF_MIN, TupVal, VecVal
from vectx.type_algebra import (
    Atom,
    Decrease,
    Increase,
    Lift,
    MapElem,
    Pair,
    Regroup,
    RegroupInv,
    Transform,
    Unlift,
    Vec,
    apply_op,
    dims_of,
    from_dims,
    leaf_of,
    print_type,
    step_apply,
)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def random_factorization(rng: random.Random, n: int, max_dims: int):
    """Ordered sizes (innermost first), product n, 1 <= len <= max_dims."""
    d = rng.randint(1, max_dims)
    dims = []
    rest = n
    for i in range(d - 1):
        f = rng.choice(divisors(rest))
        dims.append(f)
        rest //= f
    dims.append(rest)
    return tuple(dims)


def random_type(rng: random.Random, n: int, max_dims: int = 4, atom: str = "a"):
    """Random vector type over one atom with total size n."""
    t = Atom(atom)
    for size in random_factorization(rng, n, max_dims):
        t = Vec(size, t)
    return t


def randint_value(t, rng: random.Random):
    """The reference draws: a value of type t, one ``rng.randint(LEAF_MIN,
    LEAF_MAX)`` per leaf, first to last."""
    if isinstance(t, Atom):
        return rng.randint(LEAF_MIN, LEAF_MAX)
    if isinstance(t, Pair):
        return TupVal(randint_value(t.fst, rng), randint_value(t.snd, rng))
    return VecVal(tuple(randint_value(t.element, rng) for _ in range(t.size)))


def random_program_text(rng: random.Random, n: int, stages: int = 3) -> str:
    """A pipeline over a vector of total size n: ``reshapeTo``/``reshapeFrom``
    stages, maps, and perhaps a fold that ends it.  A map or fold function is
    a scalar primitive lifted to the element type by ``elementwise``/
    ``foldof``, or an opaque ``reverse``/``add_head`` of a vector of leaves."""
    t = random_type(rng, n, max_dims=3)
    lines = [f"input s :: {print_type(t)}"]
    names = []
    for i in range(1, stages + 1):
        names.append(f"s{i}")
        kinds = ["map", "map", "reshapeTo"] + ["reshapeFrom"] * isinstance(t.element, Vec)
        kind = rng.choice(kinds + ["foldl"] * (i == stages))
        if kind == "reshapeTo":
            k = rng.choice(divisors(t.size))
            lines.append(f"stage s{i} = reshapeTo {k}")
            t = Vec(t.size // k, Vec(k, t.element))
            continue
        if kind == "reshapeFrom":
            lines.append(f"stage s{i} = reshapeFrom {t.element.size}")
            t = Vec(t.size * t.element.size, t.element.element)
            continue
        fold = kind == "foldl"
        acc = "a -> " if fold else ""
        dims = dims_of(t.element)
        if len(dims) == 1 and rng.random() < 0.3:
            fn, e = f"f{i}", print_type(t.element)
            prim = "add_head" if fold else "reverse"
            ret = "a" if fold else e
            lines += [f"fn {fn} :: {acc}{e} -> {ret}", f"fn {fn} = prim {prim}"]
        else:  # f{i}_0 is the primitive, f{i}_j lifts f{i}_{j-1} one level
            prim = rng.choice(["add", "dec_shift"] if fold else ["add1", "negate"])
            lift = "foldof" if fold else "elementwise"
            for j in range(len(dims) + 1):
                e = print_type(from_dims(Atom("a"), dims[:j]))
                ret = "a" if fold else e
                body = f"{lift} f{i}_{j - 1}" if j else f"prim {prim}"
                lines += [f"fn f{i}_{j} :: {acc}{e} -> {ret}", f"fn f{i}_{j} = {body}"]
            fn = f"f{i}_{len(dims)}"
        lines.append(f"stage s{i} = foldl {fn} 0" if fold else f"stage s{i} = map {fn}")
    return "\n".join(lines + [f"result r = {' |> '.join(names)} s"]) + "\n"


def random_pipeline_text(rng: random.Random, n: int, stages: int = 4) -> str:
    """A longer pipeline over a vector of total size n, or over a pair of two
    such vectors, than ``random_program_text`` makes, with draws of its own.
    Its stages are reshapes, ``zipt``/``unzipt``, maps and perhaps a fold that
    ends it, at any depth of the element: a map of a scalar primitive, of
    ``swap`` over pairs, of an opaque ``reverse``, ``sum`` or ``wrapelem``; a
    fold of a scalar step, of an opaque ``add_head`` or of a ``wrapfold``.
    Each function is lifted to its element by ``elementwise``/``foldof``."""
    dims = random_factorization(rng, n, 3)
    if rng.random() < 0.4:
        t = Pair(from_dims(Atom("a"), dims), from_dims(Atom("b"), dims))
    else:
        t = from_dims(Atom("a"), dims)
    lines = [f"input s :: {print_type(t)}"]
    names = []
    for i in range(1, stages + 1):
        names.append(f"s{i}")
        pair = isinstance(t, Pair)
        outer = t.fst if pair else t
        kinds = ["reshapeTo"] + ["reshapeFrom"] * isinstance(outer.element, Vec)
        if pair:
            kinds += ["zipt"] * 3
        else:
            e = t.element
            kinds += ["map"] * 3 + ["unzipt"] * 3 * isinstance(e, Pair)
            kinds += ["foldl"] * (i > 1) * (3 + 3 * (i == stages)) * isinstance(leaf_of(e), Atom)
        kind = rng.choice(kinds)
        if kind == "reshapeTo":
            k = rng.choice(divisors(outer.size))
            lines.append(f"stage s{i} = reshapeTo {k}")
            t = step_apply(Increase(k), t)
        elif kind == "reshapeFrom":
            lines.append(f"stage s{i} = reshapeFrom {outer.element.size}")
            t = step_apply(Decrease(outer.element.size), t)
        elif kind in ("zipt", "unzipt"):
            lines.append(f"stage s{i} = {kind}")
            t = stage_output_type(ZiptStage() if kind == "zipt" else UnziptStage(), t, {})
        elif kind == "map":
            fn, ret = _random_map_fn(rng, lines, f"f{i}", t.element)
            lines.append(f"stage s{i} = map {fn}")
            t = Vec(t.size, ret)
        else:
            fn = _random_fold_fn(rng, lines, f"f{i}", t.element)
            lines.append(f"stage s{i} = foldl {fn} 0")
            break
    return "\n".join(lines + [f"result r = {' |> '.join(names)} s"]) + "\n"


def _random_map_fn(rng: random.Random, lines: list, fn: str, e):
    """Declare a map function over elements of type e; return its name and
    result type."""
    dims, leaf = dims_of(e), leaf_of(e)
    if isinstance(leaf, Pair):
        return _lift(lines, fn, "prim swap", leaf, Pair(leaf.snd, leaf.fst), dims, False)
    kinds = ["scalar", "scalar", "wrapelem"] + ["reverse", "sum"] * bool(dims)
    kind = rng.choice(kinds)
    if kind == "scalar":
        prim = rng.choice(["add1", "negate", "mul3"])
        return _lift(lines, fn, f"prim {prim}", leaf, leaf, dims, False)
    if kind == "wrapelem":
        k = rng.randint(1, 3)
        chunk = print_type(Vec(k, leaf))
        lines += [f"fn {fn}r :: {chunk} -> {chunk}", f"fn {fn}r = prim reverse"]
        return _lift(lines, fn, f"wrapelem {fn}r {k}", leaf, leaf, dims, False)
    chunk = Vec(dims[0], leaf)
    ret = chunk if kind == "reverse" else leaf
    return _lift(lines, fn, f"prim {kind}", chunk, ret, dims[1:], False)


def _random_fold_fn(rng: random.Random, lines: list, fn: str, e) -> str:
    """Declare a fold function over elements of type e, whose leaf is an
    atom, from the accumulator 0; return its name."""
    dims, leaf = dims_of(e), leaf_of(e)
    kind = rng.choice(["scalar", "scalar", "wrapfold"] + ["add_head"] * bool(dims))
    if kind == "scalar":
        prim = rng.choice(["add", "dec_shift", "max"])
        return _lift(lines, fn, f"prim {prim}", leaf, leaf, dims, True)[0]
    if kind == "wrapfold":
        k = rng.randint(1, 3)
        chunk = print_type(Vec(k, leaf))
        a = print_type(leaf)
        lines += [f"fn {fn}h :: {a} -> {chunk} -> {a}", f"fn {fn}h = prim add_head"]
        return _lift(lines, fn, f"wrapfold {fn}h {k}", leaf, leaf, dims, True)[0]
    return _lift(lines, fn, "prim add_head", Vec(dims[0], leaf), leaf, dims[1:], True)[0]


def _lift(lines: list, fn: str, base: str, arg, ret, dims, fold: bool):
    """Declare ``fn_0 = base`` over ``arg`` with result ``ret`` (for a fold,
    ``ret -> arg -> ret``), and each ``fn_j`` lifting ``fn_{j-1}`` over one
    more of ``dims``, innermost first, by ``elementwise`` (``foldof``).
    Returns the outermost name and its result type."""
    for j in range(len(dims) + 1):
        a = print_type(from_dims(arg, dims[:j]))
        if fold:
            r = print_type(ret)
            sig = f"{r} -> {a} -> {r}"
        else:
            sig = f"{a} -> {print_type(from_dims(ret, dims[:j]))}"
        body = f"{'foldof' if fold else 'elementwise'} {fn}_{j - 1}" if j else base
        lines += [f"fn {fn}_{j} :: {sig}", f"fn {fn}_{j} = {body}"]
    return f"{fn}_{len(dims)}", ret if fold else from_dims(ret, dims)


def random_structural_transform(rng: random.Random, depth: int = 0) -> Transform:
    """Random op sequence with no applicability guarantee."""
    ops = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.randint(0, 5 if depth < 2 else 4)
        if kind == 0:
            ops.append(Lift())
        elif kind == 1:
            ops.append(Unlift())
        elif kind == 2:
            pass  # I, the identity, is no operation
        elif kind == 3:
            ops.append(Regroup(rng.randint(1, 6)))
        elif kind == 4:
            ops.append(RegroupInv(rng.randint(1, 6)))
        else:
            ops.append(MapElem(random_structural_transform(rng, depth + 1)))
    return Transform(tuple(ops))


def random_applicable_transform(
    rng: random.Random, t, max_len: int = 6, depth: int = 0
) -> Transform:
    """Random transform guaranteed to apply to t, built op by op."""
    applied = []  # application order
    cur = t
    for _ in range(rng.randint(0, max_len)):
        choices = ["lift", "ident"]
        if isinstance(cur, Vec):
            if cur.size == 1:
                choices.append("unlift")
            if isinstance(cur.element, Vec):
                choices += ["regroup", "regroupinv"]
            if depth < 2:
                choices.append("mapelem")
        pick = rng.choice(choices)
        if pick == "ident":  # I, the identity, is no operation
            continue
        if pick == "lift":
            op = Lift()
        elif pick == "unlift":
            op = Unlift()
        elif pick == "regroup":
            op = Regroup(rng.choice(divisors(cur.size)))
        elif pick == "regroupinv":
            op = RegroupInv(rng.choice(divisors(cur.element.size)))
        elif pick == "mapelem":
            op = MapElem(random_applicable_transform(rng, cur.element, max_len=3, depth=depth + 1))
        cur = apply_op(op, cur)
        applied.append(op)
    return Transform(tuple(reversed(applied)))


def flatten(v) -> VecVal:
    """Fully flatten nested vectors into the 1-D sequence of their leaves:
    the order oracle that value reshapes are checked against."""
    if not isinstance(v, VecVal):
        return VecVal((v,))
    out = []
    for item in v.items:
        if isinstance(item, VecVal):
            out.extend(flatten(item).items)
        else:
            out.append(item)
    return VecVal(tuple(out))


def shape_of(v):
    """The type a value inhabits, scalar atoms reported as ``int``: the shape
    oracle that value reshapes are checked against."""
    if type(v) is int:
        return Atom("int")
    if isinstance(v, TupVal):
        return Pair(shape_of(v.fst), shape_of(v.snd))
    if not v.items:
        raise ShapeError("empty vector has no shape")
    first = shape_of(v.items[0])
    for item in v.items[1:]:
        if shape_of(item) != first:
            raise ShapeError("ragged vector: elements differ in shape")
    return Vec(len(v.items), first)
