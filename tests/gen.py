"""Seeded random generators shared by the property and acceptance tests."""

import random

from vectx.errors import ShapeError
from vectx.runtime import TupVal, VecVal
from vectx.type_algebra import (
    Atom,
    Ident,
    Lift,
    MapElem,
    Pair,
    Regroup,
    RegroupInv,
    Transform,
    Unlift,
    Unwrap,
    Vec,
    Wrap,
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


def random_structural_transform(rng: random.Random, depth: int = 0) -> Transform:
    """Random op sequence with no applicability guarantee."""
    ops = []
    for _ in range(rng.randint(0, 5)):
        kind = rng.randint(0, 7 if depth < 2 else 6)
        if kind == 0:
            ops.append(Lift())
        elif kind == 1:
            ops.append(Unlift())
        elif kind == 2:
            ops.append(Ident())
        elif kind == 3:
            ops.append(Regroup(rng.randint(1, 6)))
        elif kind == 4:
            ops.append(RegroupInv(rng.randint(1, 6)))
        elif kind == 5:
            ops.append(Wrap(rng.randint(1, 4)))
        elif kind == 6:
            ops.append(Unwrap(rng.randint(1, 4)))
        else:
            ops.append(MapElem(random_structural_transform(rng, depth + 1)))
    return Transform(tuple(ops))


def random_applicable_transform(
    rng: random.Random, t, max_len: int = 6, allow_wrap: bool = True, depth: int = 0
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
            if allow_wrap:
                choices.append("unwrap")
        if allow_wrap:
            choices.append("wrap")
        pick = rng.choice(choices)
        if pick == "lift":
            op = Lift()
        elif pick == "ident":
            op = Ident()
        elif pick == "unlift":
            op = Unlift()
        elif pick == "regroup":
            op = Regroup(rng.choice(divisors(cur.size)))
        elif pick == "regroupinv":
            op = RegroupInv(rng.choice(divisors(cur.element.size)))
        elif pick == "mapelem":
            op = MapElem(
                random_applicable_transform(
                    rng, cur.element, max_len=3, allow_wrap=allow_wrap, depth=depth + 1
                )
            )
        elif pick == "unwrap":
            op = Unwrap(cur.size)
        else:
            op = Wrap(rng.randint(1, 4))
        from vectx.type_algebra import apply_op

        cur = apply_op(op, cur)
        applied.append(op)
    return Transform(tuple(reversed(applied)))


def uses_wrap(tr: Transform) -> bool:
    for op in tr.ops:
        if isinstance(op, (Wrap, Unwrap)):
            return True
        if isinstance(op, MapElem) and uses_wrap(op.inner):
            return True
    return False


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
