"""Seeded case specifications and the expected results, computed without vectx.

A case is one pipeline over one input, one input transform and a trial count.
Its specification is plain data: the input dims (innermost first, as in the
type text ``[a]<2><3>``), the stages, the target dims and the flat input
integers.  This module renders the program text from it and works out every
expected result from the flat integers alone, using the paper's central
property: reshape, ``zipt`` and ``unzipt`` stages and the ``S``/``R``/``M``
transforms never change the flat order of the leaves.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from functools import reduce

# Scalar primitives of the maps and steps of the folds, as the vectx primitive
# library defines them.
SCALAR_FNS = {
    "add1": lambda x: x + 1,
    "mul3": lambda x: 3 * x,
    "negate": lambda x: -x,
}
FOLD_STEPS = {
    "add": lambda acc, x: acc + x,
    "max": max,
    "dec_shift": lambda acc, x: 10 * acc + x,
}

WORKLOADS = ("derive_mix", "verify_assoc", "verify_pairs_bigint")


@dataclass(frozen=True)
class Spec:
    """One case.  ``stages`` holds ``("map", prim)``, ``("foldl", prim)`` with
    accumulator 0, ``("reshapeTo", k)``, ``("reshapeFrom", k)``, ``("zipt",)``,
    ``("swap",)`` or ``("unzipt",)``.  ``flat`` holds one tuple of leaves, or
    two for a pair input ``([a]<dims>,[b]<dims>)``."""

    in_dims: tuple[int, ...]
    stages: tuple[tuple, ...]
    target_dims: tuple[int, ...]
    flat: tuple[tuple[int, ...], ...]
    trials: int
    verify_seed: int


@dataclass(frozen=True)
class Expected:
    """What each check compares against, in the vectx value text: the
    program's output and the input re-chunked into the target dims; and the
    derived program's flat leaves, a list of ints (one int for a fold), or a
    pair of lists for a pair result."""

    output_text: str
    rechunked_text: str
    derived_leaves: object


# ---------------------------------------------------------------------------
# Program text


def type_text(atom: str, dims: tuple[int, ...]) -> str:
    if not dims:
        return atom
    return f"[{atom}]" + "".join(f"<{d}>" for d in dims)


def input_type_text(spec: Spec) -> str:
    if len(spec.flat) == 2:
        return f"({type_text('a', spec.in_dims)},{type_text('b', spec.in_dims)})"
    return type_text("a", spec.in_dims)


def program_text(spec: Spec) -> str:
    """The vectx program of a case.  Every chunk-level function is declared
    ``elementwise`` or ``foldof`` over a scalar or pair primitive."""
    lines = [f"input s :: {input_type_text(spec)}"]
    names = []
    dims = spec.in_dims
    for i, stage in enumerate(spec.stages, start=1):
        kind = stage[0]
        elem = dims[:-1]
        name = f"s{i}"
        names.append(name)
        if kind == "map":
            lines += [f"fn m{i}_0 :: a -> a", f"fn m{i}_0 = prim {stage[1]}"]
            for j in range(1, len(elem) + 1):
                t = type_text("a", elem[:j])
                lines += [f"fn m{i}_{j} :: {t} -> {t}", f"fn m{i}_{j} = elementwise m{i}_{j - 1}"]
            lines.append(f"stage {name} = map m{i}_{len(elem)}")
        elif kind == "foldl":
            lines += [f"fn g{i}_0 :: a -> a -> a", f"fn g{i}_0 = prim {stage[1]}"]
            for j in range(1, len(elem) + 1):
                t = type_text("a", elem[:j])
                lines += [f"fn g{i}_{j} :: a -> {t} -> a", f"fn g{i}_{j} = foldof g{i}_{j - 1}"]
            lines.append(f"stage {name} = foldl g{i}_{len(elem)} 0")
        elif kind == "swap":
            ea, eb = type_text("a", elem), type_text("b", elem)
            lines += [f"fn w{i} :: ({ea},{eb}) -> ({eb},{ea})", f"fn w{i} = prim swap"]
            lines.append(f"stage {name} = map w{i}")
        elif kind in ("zipt", "unzipt"):
            lines.append(f"stage {name} = {kind}")
        else:
            lines.append(f"stage {name} = {kind} {stage[1]}")
            dims = _reshape_dims(stage, dims)
    lines.append(f"result r = {' |> '.join(names)} s")
    return "\n".join(lines) + "\n"


def _reshape_dims(stage: tuple, dims: tuple[int, ...]) -> tuple[int, ...]:
    kind, k = stage
    if kind == "reshapeTo":
        return dims[:-1] + (k, dims[-1] // k)
    return dims[:-2] + (dims[-2] * dims[-1],)


# ---------------------------------------------------------------------------
# Expected results


def nest(flat, dims: tuple[int, ...]) -> list:
    """Chunk a flat sequence into nested lists of the given dims, innermost
    first: ``nest(range(6), (2, 3))`` has 3 chunks of 2."""
    out = list(flat)
    for d in dims[:-1]:
        out = [out[i : i + d] for i in range(0, len(out), d)]
    return out


def value_text(v) -> str:
    """The vectx literal of a nested list, a pair (tuple) or an int."""
    if isinstance(v, int):
        return str(v)
    if isinstance(v, tuple):
        return f"({value_text(v[0])},{value_text(v[1])})"
    if v and isinstance(v[0], int):
        return "[" + ",".join(map(str, v)) + "]"
    return "[" + ",".join(map(value_text, v)) + "]"


def leaf_ints(text: str):
    """The leaves of a printed vectx value in order.  A top-level pair gives
    a pair of lists, so a leaf moved from one component to the other shows."""
    if text.startswith("("):
        depth = 0
        for i, ch in enumerate(text):
            if ch in "([":
                depth += 1
            elif ch in ")]":
                depth -= 1
            elif ch == "," and depth == 1:
                return (leaf_ints(text[1:i]), leaf_ints(text[i + 1 : -1]))
    return [int(t) for t in _INT.findall(text)]


_INT = re.compile(r"-?[0-9]+")


def _shaped_text(comps, dims: tuple[int, ...]) -> str:
    if len(comps) == 2:
        return value_text(tuple(nest(c, dims) for c in comps))
    return value_text(nest(comps[0], dims))


def input_text(spec: Spec) -> str:
    return _shaped_text(spec.flat, spec.in_dims)


def expected(spec: Spec) -> Expected:
    """Every expected result of a case, from its flat input integers alone:
    maps act leaf by leaf in stage order, a final ``foldl`` is a left fold of
    its scalar step, ``swap`` exchanges the two components, and reshapes,
    ``zipt`` and ``unzipt`` keep the flat order."""
    comps = [list(c) for c in spec.flat]
    dims = spec.in_dims
    rechunked_text = _shaped_text(spec.flat, spec.target_dims)
    for stage in spec.stages:
        kind = stage[0]
        if kind == "map":
            f = SCALAR_FNS[stage[1]]
            comps = [[f(x) for x in c] for c in comps]
        elif kind == "foldl":
            (c,) = comps
            total = reduce(FOLD_STEPS[stage[1]], c, 0)
            return Expected(str(total), rechunked_text, [total])
        elif kind == "swap":
            comps = comps[::-1]
        elif kind in ("reshapeTo", "reshapeFrom"):
            dims = _reshape_dims(stage, dims)
    derived_leaves = tuple(comps) if len(comps) == 2 else comps[0]
    return Expected(_shaped_text(comps, dims), rechunked_text, derived_leaves)


# ---------------------------------------------------------------------------
# Seeded workloads


def _divisors(n: int) -> list[int]:
    return [d for d in range(2, n) if n % d == 0]


def _random_dims(rng: random.Random, n: int, max_dims: int) -> tuple[int, ...]:
    """Sizes >= 2, innermost first, whose product is n."""
    dims = []
    rest = n
    for _ in range(rng.randint(1, max_dims) - 1):
        if not _divisors(rest):
            break
        d = rng.choice(_divisors(rest))
        dims.append(d)
        rest //= d
    return tuple(dims) + (rest,)


def _ints(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.randint(-99, 99) for _ in range(n))


# Total sizes that can be chunked in at least two ways.
MIX_SIZES = [n for n in range(8, 97) if len(_divisors(n)) >= 2]


def _mix_case(rng: random.Random) -> Spec:
    n = rng.choice(MIX_SIZES)
    in_dims = _random_dims(rng, n, 4)
    target = _random_dims(rng, n, 4)
    if rng.random() < 0.25:
        stages = (("zipt",), ("swap",), ("unzipt",))
        return Spec(in_dims, stages, target, (_ints(rng, n), _ints(rng, n)), 2, rng.randrange(2**31))
    stages = []
    dims = in_dims
    for _ in range(rng.randint(1, 5)):
        kinds = ["map"]
        if _divisors(dims[-1]):
            kinds.append("reshapeTo")
        if len(dims) > 1:
            kinds.append("reshapeFrom")
        kind = rng.choice(kinds)
        if kind == "map":
            stages.append(("map", rng.choice(sorted(SCALAR_FNS))))
            continue
        stage = (kind, rng.choice(_divisors(dims[-1])) if kind == "reshapeTo" else dims[-2])
        stages.append(stage)
        dims = _reshape_dims(stage, dims)
    if rng.random() < 0.5:
        stages.append(("foldl", rng.choice(sorted(FOLD_STEPS))))
    return Spec(in_dims, tuple(stages), target, (_ints(rng, n),), 2, rng.randrange(2**31))


# The two large workloads have a fixed make-up, so that the work in a run
# does not depend on the seed; the seed draws the input integers and the
# seeds of verify.  Kinds alternate, so that a run that stops part way
# through a round still holds them in about the same shares.  Two zip cases
# come to each fold, and their first chunks are 4 or 8 wide, which costs
# about the same, so that the median verify time falls among zip cases of
# one cost and not in the gap between the two kinds.  The folds stay at
# 4096 elements: a longer dec_shift result has more than the 4300 digits
# that Python converts to text by default.

FLAT_ASSOC = (("map", "add1"), ("foldl", "add"))
CHUNKED_ASSOC = (("map", "mul3"), ("foldl", "max"))
ASSOC_PLANS = [
    ((16384,), FLAT_ASSOC, (16, 1024)),  # Increase
    ((16, 1024), CHUNKED_ASSOC, (16384,)),  # Decrease
    ((16384,), FLAT_ASSOC, (8, 8, 256)),  # Increase twice
    ((16, 1024), CHUNKED_ASSOC, (64, 256)),  # Repartition
    ((16384,), FLAT_ASSOC, (4, 4096)),  # Increase
    ((16, 1024), CHUNKED_ASSOC, (16, 8, 128)),  # Increase
]

ZIP_SWAP = (("zipt",), ("swap",), ("unzipt",))
SHIFT = (("map", "mul3"), ("foldl", "dec_shift"))
PAIRS_PLANS = [
    ((8192,), ZIP_SWAP, (4, 8, 256)),  # Increase twice
    ((8192,), ZIP_SWAP, (8, 8, 128)),
    ((16, 256), SHIFT, (4096,)),  # Decrease
    ((8192,), ZIP_SWAP, (4, 4, 512)),
    ((8192,), ZIP_SWAP, (8, 16, 64)),
    ((16, 256), SHIFT, (32, 128)),  # Repartition
    ((8192,), ZIP_SWAP, (4, 16, 128)),
    ((8192,), ZIP_SWAP, (8, 4, 256)),
    ((16, 256), SHIFT, (16, 8, 32)),  # Increase
]


def _planned(rng: random.Random, plans, trials: int) -> list[Spec]:
    specs = []
    for in_dims, stages, target in plans:
        n = math.prod(in_dims)
        flat = (_ints(rng, n), _ints(rng, n)) if stages[0] == ("zipt",) else (_ints(rng, n),)
        specs.append(Spec(in_dims, stages, target, flat, trials, rng.randrange(2**31)))
    return specs


def make_specs(workload: str, seed: int) -> list[Spec]:
    """The cases of a workload, the same for the same seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "derive_mix":
        return [_mix_case(rng) for _ in range(1000)]
    if workload == "verify_assoc":
        return _planned(rng, ASSOC_PLANS, 3)
    if workload == "verify_pairs_bigint":
        return _planned(rng, PAIRS_PLANS, 3)
    raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")
