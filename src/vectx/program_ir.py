"""Pipeline programs: an input, a chain of stages, a result.

A program file is line-oriented:

    input <name> :: <type>
    fn <name> :: <type> -> ... -> <type>
    fn <name> = prim <primitive-id>
             | elementwise <h>        # <name> maps <h> over its argument
             | foldof <h>             # <name> folds <h> over its argument
             | wrapelem <h> <k>       # x -> head (h (replicate k x))
             | wrapfold <h> <k>       # acc, x -> h acc (replicate k x)
    stage <name> = map <f>
                 | foldl <f> <literal-acc>
                 | zipt | unzipt
                 | reshapeTo <k> | reshapeFrom <k>
    result <name> = <stage> [|> <stage> ...] <input-name>

Blank lines and ``#`` comments are ignored.  Stages run left to right.
Functions are opaque to everything except the interpreter: only their
signatures and declared structure (``elementwise``/``foldof``) matter to
the derivation rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import ParseError, StageTypeError, VectxError
from .runtime import PRIMITIVES, Value, conforms, parse_value, print_value
from .type_algebra import (
    Decrease,
    Increase,
    Pair,
    Vec,
    VecType,
    parse_type,
    print_type,
    step_apply,
)

# ---------------------------------------------------------------------------
# Functions


@dataclass(frozen=True)
class FnSig:
    args: tuple[VecType, ...]
    ret: VecType


@dataclass(frozen=True)
class PrimDef:
    prim: str


@dataclass(frozen=True)
class ElementwiseDef:
    fn: str


@dataclass(frozen=True)
class FoldOfDef:
    fn: str


@dataclass(frozen=True)
class WrapElemDef:
    fn: str
    k: int


@dataclass(frozen=True)
class WrapFoldDef:
    fn: str
    k: int


FnDef = Union[PrimDef, ElementwiseDef, FoldOfDef, WrapElemDef, WrapFoldDef]


@dataclass(frozen=True)
class OpaqueFn:
    name: str
    sig: FnSig
    defn: Optional[FnDef] = None


# ---------------------------------------------------------------------------
# Stages and programs


@dataclass(frozen=True)
class MapStage:
    fn: str


@dataclass(frozen=True)
class FoldStage:
    fn: str
    acc: Value


@dataclass(frozen=True)
class ZiptStage:
    pass


@dataclass(frozen=True)
class UnziptStage:
    pass


@dataclass(frozen=True)
class ReshapeToStage:
    k: int


@dataclass(frozen=True)
class ReshapeFromStage:
    k: int


@dataclass(frozen=True)
class ComposedStage:
    stages: tuple["Stage", ...]


Stage = Union[
    MapStage,
    FoldStage,
    ZiptStage,
    UnziptStage,
    ReshapeToStage,
    ReshapeFromStage,
    ComposedStage,
]


@dataclass(frozen=True)
class Program:
    input_name: str
    input_type: VecType
    fns: dict[str, OpaqueFn]
    stages: tuple[tuple[str, Stage], ...]
    result_name: str


@dataclass(frozen=True)
class TypedProgram:
    program: Program
    stage_types: tuple[tuple[VecType, VecType], ...]
    result_type: VecType


# ---------------------------------------------------------------------------
# Typechecking


def _fail(stage: str, msg: str):
    raise StageTypeError(f"stage {stage}: {msg}")


def stage_output_type(stage: Stage, t: VecType, fns: dict[str, OpaqueFn], name: str = "?") -> VecType:
    """Output type of one stage applied at input type t."""
    if isinstance(stage, MapStage):
        fn = fns[stage.fn]
        if not isinstance(t, Vec):
            _fail(name, f"map needs a vector input, got {print_type(t)}")
        if len(fn.sig.args) != 1:
            _fail(name, f"map function {fn.name} must take one argument")
        if fn.sig.args[0] != t.element:
            _fail(
                name,
                f"map function {fn.name} takes {print_type(fn.sig.args[0])} "
                f"but elements are {print_type(t.element)}",
            )
        return Vec(t.size, fn.sig.ret)
    if isinstance(stage, FoldStage):
        fn = fns[stage.fn]
        if not isinstance(t, Vec):
            _fail(name, f"foldl needs a vector input, got {print_type(t)}")
        if len(fn.sig.args) != 2:
            _fail(name, f"fold function {fn.name} must take two arguments")
        acc_t, elem_t = fn.sig.args
        if fn.sig.ret != acc_t:
            _fail(name, f"fold function {fn.name} must return its accumulator type")
        if elem_t != t.element:
            _fail(
                name,
                f"fold function {fn.name} consumes {print_type(elem_t)} "
                f"but elements are {print_type(t.element)}",
            )
        if not conforms(stage.acc, acc_t):
            _fail(
                name,
                f"accumulator {print_value(stage.acc)} does not conform to {print_type(acc_t)}",
            )
        return acc_t
    if isinstance(stage, ZiptStage):
        if (
            not isinstance(t, Pair)
            or not isinstance(t.fst, Vec)
            or not isinstance(t.snd, Vec)
        ):
            _fail(name, f"zipt needs a pair of vectors, got {print_type(t)}")
        if t.fst.size != t.snd.size:
            _fail(name, f"zipt needs equal lengths, got {t.fst.size} and {t.snd.size}")
        return Vec(t.fst.size, Pair(t.fst.element, t.snd.element))
    if isinstance(stage, UnziptStage):
        if not isinstance(t, Vec) or not isinstance(t.element, Pair):
            _fail(name, f"unzipt needs a vector of pairs, got {print_type(t)}")
        return Pair(Vec(t.size, t.element.fst), Vec(t.size, t.element.snd))
    if isinstance(stage, (ReshapeToStage, ReshapeFromStage)):
        step = Increase(stage.k) if isinstance(stage, ReshapeToStage) else Decrease(stage.k)
        try:
            return step_apply(step, t)
        except VectxError as e:
            _fail(name, f"{print_stage(stage)}: {e}")
    if isinstance(stage, ComposedStage):
        for sub in stage.stages:
            t = stage_output_type(sub, t, fns, name)
        return t
    raise TypeError(f"unknown stage {stage!r}")


def _check_fn(fn: OpaqueFn, fns: dict[str, OpaqueFn]):
    d = fn.defn
    if d is None:
        return
    if isinstance(d, PrimDef):
        if d.prim in PRIMITIVES and PRIMITIVES[d.prim][0] != len(fn.sig.args):
            raise StageTypeError(
                f"fn {fn.name}: primitive {d.prim} takes {PRIMITIVES[d.prim][0]} "
                f"arguments but the signature has {len(fn.sig.args)}"
            )
        return
    if d.fn not in fns:
        raise StageTypeError(f"fn {fn.name}: unknown function {d.fn}")
    h = fns[d.fn]
    if isinstance(d, ElementwiseDef):
        ok = (
            len(fn.sig.args) == 1
            and len(h.sig.args) == 1
            and isinstance(fn.sig.args[0], Vec)
            and isinstance(fn.sig.ret, Vec)
            and fn.sig.args[0].size == fn.sig.ret.size
            and fn.sig.args[0].element == h.sig.args[0]
            and fn.sig.ret.element == h.sig.ret
        )
        if not ok:
            raise StageTypeError(
                f"fn {fn.name}: elementwise {h.name} needs signature "
                f"[{print_type(h.sig.args[0])}]<k> -> [{print_type(h.sig.ret)}]<k>"
            )
    elif isinstance(d, FoldOfDef):
        ok = (
            len(fn.sig.args) == 2
            and len(h.sig.args) == 2
            and isinstance(fn.sig.args[1], Vec)
            and fn.sig.args[0] == h.sig.args[0] == h.sig.ret == fn.sig.ret
            and fn.sig.args[1].element == h.sig.args[1]
        )
        if not ok:
            raise StageTypeError(
                f"fn {fn.name}: foldof {h.name} needs signature "
                f"b -> [{print_type(h.sig.args[1])}]<k> -> b"
            )
    elif isinstance(d, WrapElemDef):
        ok = (
            len(fn.sig.args) == 1
            and len(h.sig.args) == 1
            and h.sig.args[0] == Vec(d.k, fn.sig.args[0])
            and h.sig.ret == Vec(d.k, fn.sig.ret)
        )
        if not ok:
            raise StageTypeError(f"fn {fn.name}: wrapelem signature mismatch")
    elif isinstance(d, WrapFoldDef):
        ok = (
            len(fn.sig.args) == 2
            and len(h.sig.args) == 2
            and fn.sig.args[0] == h.sig.args[0] == h.sig.ret == fn.sig.ret
            and h.sig.args[1] == Vec(d.k, fn.sig.args[1])
        )
        if not ok:
            raise StageTypeError(f"fn {fn.name}: wrapfold signature mismatch")


def typecheck(program: Program) -> TypedProgram:
    """Resolve concrete input/output types for every stage."""
    for fn in program.fns.values():
        _check_fn(fn, program.fns)
    t = program.input_type
    stage_types = []
    for name, stage in program.stages:
        out = stage_output_type(stage, t, program.fns, name)
        stage_types.append((t, out))
        t = out
    return TypedProgram(program, tuple(stage_types), t)


# ---------------------------------------------------------------------------
# Parsing


def _parse_sig(text: str, line_no: int) -> FnSig:
    parts = [p.strip() for p in text.split("->")]
    if len(parts) < 2:
        raise ParseError("signature needs at least one ->", line=line_no)
    try:
        types = [parse_type(p) for p in parts]
    except ParseError as e:
        raise ParseError(f"bad type in signature: {e}", line=line_no)
    return FnSig(tuple(types[:-1]), types[-1])


def _parse_size(text: str, what: str, line_no: int) -> int:
    try:
        if not text.isdecimal():  # digits only, as in a type's <size>
            raise ValueError(text)
        k = int(text)
    except ValueError:  # or more digits than int() converts
        raise ParseError(f"{what} needs an integer", line=line_no) from None
    if k < 1:
        raise ParseError(f"{what} needs a size >= 1", line=line_no)
    return k


def _parse_stage(rest: str, fns: dict[str, OpaqueFn], line_no: int) -> Stage:
    words = rest.split(None, 1)
    if not words:
        raise ParseError("empty stage definition", line=line_no)
    kind = words[0]
    arg = words[1].strip() if len(words) > 1 else ""
    if kind == "map":
        if arg not in fns:
            raise ParseError(f"undeclared function {arg!r}", line=line_no)
        return MapStage(arg)
    if kind == "foldl":
        sub = arg.split(None, 1)
        if len(sub) != 2:
            raise ParseError("foldl needs a function and an accumulator", line=line_no)
        if sub[0] not in fns:
            raise ParseError(f"undeclared function {sub[0]!r}", line=line_no)
        try:
            acc = parse_value(sub[1])
        except ParseError as e:
            raise ParseError(f"bad accumulator literal: {e}", line=line_no)
        return FoldStage(sub[0], acc)
    if kind == "zipt":
        return ZiptStage()
    if kind == "unzipt":
        return UnziptStage()
    if kind in ("reshapeTo", "reshapeFrom"):
        k = _parse_size(arg, kind, line_no)
        return ReshapeToStage(k) if kind == "reshapeTo" else ReshapeFromStage(k)
    raise ParseError(f"unknown stage kind {kind!r}", line=line_no)


def parse_program(text: str) -> Program:
    input_name = None
    input_type = None
    fns: dict[str, OpaqueFn] = {}
    sigs: dict[str, FnSig] = {}
    defs: dict[str, FnDef] = {}
    order: list[str] = []
    stage_bodies: dict[str, tuple[str, int]] = {}
    stage_order: list[str] = []
    result = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        words = line.split(None, 1)
        head = words[0]
        rest = words[1] if len(words) > 1 else ""
        if head == "input":
            if input_name is not None:
                raise ParseError("duplicate input line", line=line_no)
            if "::" not in rest:
                raise ParseError("input needs '<name> :: <type>'", line=line_no)
            name, ty = rest.split("::", 1)
            input_name = name.strip()
            try:
                input_type = parse_type(ty.strip())
            except ParseError as e:
                raise ParseError(f"bad input type: {e}", line=line_no)
        elif head == "fn":
            if "::" in rest:
                name, sig = rest.split("::", 1)
                name = name.strip()
                if name in sigs:
                    raise ParseError(f"duplicate signature for {name}", line=line_no)
                sigs[name] = _parse_sig(sig, line_no)
                if name not in order:
                    order.append(name)
            elif "=" in rest:
                name, body = rest.split("=", 1)
                name = name.strip()
                words = body.split()
                if not words:
                    raise ParseError("empty function definition", line=line_no)
                kind = words[0]
                if name in defs:
                    raise ParseError(f"duplicate definition for {name}", line=line_no)
                if kind == "prim" and len(words) == 2:
                    defs[name] = PrimDef(words[1])
                elif kind == "elementwise" and len(words) == 2:
                    defs[name] = ElementwiseDef(words[1])
                elif kind == "foldof" and len(words) == 2:
                    defs[name] = FoldOfDef(words[1])
                elif kind == "wrapelem" and len(words) == 3:
                    defs[name] = WrapElemDef(words[1], _parse_size(words[2], kind, line_no))
                elif kind == "wrapfold" and len(words) == 3:
                    defs[name] = WrapFoldDef(words[1], _parse_size(words[2], kind, line_no))
                else:
                    raise ParseError(f"bad function definition {body.strip()!r}", line=line_no)
                if name not in order:
                    order.append(name)
            else:
                raise ParseError("fn line needs '::' or '='", line=line_no)
        elif head == "stage":
            if "=" not in rest:
                raise ParseError("stage line needs '='", line=line_no)
            name, body = rest.split("=", 1)
            name = name.strip()
            if name in stage_bodies:
                raise ParseError(f"duplicate stage {name}", line=line_no)
            # defer fn-existence checks until all fn lines are read
            stage_bodies[name] = (body.strip(), line_no)
            stage_order.append(name)
        elif head == "result":
            if result is not None:
                raise ParseError("duplicate result line", line=line_no)
            if "=" not in rest:
                raise ParseError("result line needs '='", line=line_no)
            name, body = rest.split("=", 1)
            result = (name.strip(), body.strip(), line_no)
        else:
            raise ParseError(f"unknown directive {head!r}", line=line_no)

    if input_name is None:
        raise ParseError("missing input line")
    for name in order:
        if name not in sigs:
            raise ParseError(f"function {name} has a definition but no signature")
        fns[name] = OpaqueFn(name, sigs[name], defs.get(name))
    for fn in fns.values():
        if fn.defn is not None and not isinstance(fn.defn, PrimDef):
            if fn.defn.fn not in fns:
                raise ParseError(
                    f"function {fn.name} refers to undeclared function {fn.defn.fn}"
                )

    parsed_stages: dict[str, Stage] = {}
    for name in stage_order:
        body, line_no = stage_bodies[name]
        parsed_stages[name] = _parse_stage(body, fns, line_no)

    if result is None:
        raise ParseError("missing result line")
    result_name, body, line_no = result
    segments = [s.strip() for s in body.split("|>")]
    last = segments[-1].split()
    if len(last) == 1 and len(segments) == 1:
        # empty pipeline: the result is the input unchanged
        segments = []
        arg = last[0]
    elif len(last) == 2:
        segments[-1] = last[0]
        arg = last[1]
    else:
        raise ParseError("result must end with '<stage> <input-name>'", line=line_no)
    if arg != input_name:
        raise ParseError(f"result applies to {arg!r} but the input is {input_name!r}", line=line_no)
    pipeline = []
    for seg in segments:
        if seg not in parsed_stages:
            raise ParseError(f"undeclared stage {seg!r}", line=line_no)
        pipeline.append((seg, parsed_stages[seg]))
    unused = set(stage_order) - {name for name, _ in pipeline}
    if unused:
        raise ParseError(f"stages never used in result: {', '.join(sorted(unused))}")
    return Program(input_name, input_type, fns, tuple(pipeline), result_name)


# ---------------------------------------------------------------------------
# Printing


def _print_defn(d: FnDef) -> str:
    if isinstance(d, PrimDef):
        return f"prim {d.prim}"
    if isinstance(d, ElementwiseDef):
        return f"elementwise {d.fn}"
    if isinstance(d, FoldOfDef):
        return f"foldof {d.fn}"
    if isinstance(d, WrapElemDef):
        return f"wrapelem {d.fn} {d.k}"
    if isinstance(d, WrapFoldDef):
        return f"wrapfold {d.fn} {d.k}"
    raise TypeError(f"unknown definition {d!r}")


def print_stage(s: Stage) -> str:
    if isinstance(s, MapStage):
        return f"map {s.fn}"
    if isinstance(s, FoldStage):
        return f"foldl {s.fn} {print_value(s.acc)}"
    if isinstance(s, ZiptStage):
        return "zipt"
    if isinstance(s, UnziptStage):
        return "unzipt"
    if isinstance(s, ReshapeToStage):
        return f"reshapeTo {s.k}"
    if isinstance(s, ReshapeFromStage):
        return f"reshapeFrom {s.k}"
    raise TypeError(f"composed stages must be flattened before printing: {s!r}")


def fresh_name(base: str, used: set[str]) -> str:
    """``base``, with ``_`` appended until it is not in ``used``; the name
    is added to ``used``."""
    name = base
    while name in used:
        name += "_"
    used.add(name)
    return name


def flatten_composed(program: Program) -> Program:
    """Split composed stages, at every depth, into consecutive named stages
    for printing.  The parts of a stage ``t`` are named ``t_1``, ``t_2``, …,
    made fresh against every stage name in the program."""
    out = []
    used = {name for name, _ in program.stages}

    def add(name: str, stage: Stage):
        if isinstance(stage, ComposedStage):
            for i, sub in enumerate(stage.stages, start=1):
                add(fresh_name(f"{name}_{i}", used), sub)
        else:
            out.append((name, stage))

    for name, stage in program.stages:
        add(name, stage)
    return Program(
        program.input_name,
        program.input_type,
        program.fns,
        tuple(out),
        program.result_name,
    )


def print_program(program: Program) -> str:
    program = flatten_composed(program)
    lines = [f"input {program.input_name} :: {print_type(program.input_type)}"]
    for fn in program.fns.values():
        sig = " -> ".join(print_type(t) for t in (*fn.sig.args, fn.sig.ret))
        lines.append(f"fn {fn.name} :: {sig}")
        if fn.defn is not None:
            lines.append(f"fn {fn.name} = {_print_defn(fn.defn)}")
    for name, stage in program.stages:
        lines.append(f"stage {name} = {print_stage(stage)}")
    chain = " |> ".join(name for name, _ in program.stages)
    applied = f"{chain} {program.input_name}" if chain else program.input_name
    lines.append(f"result {program.result_name} = {applied}")
    return "\n".join(lines) + "\n"
