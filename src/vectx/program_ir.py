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
                 | zipt | unzipt      # no argument
                 | reshapeTo <k> | reshapeFrom <k>
    result <name> = <stage> [|> <stage> ...] <input-name>

Blank lines and ``#`` comments are ignored.  Stages run left to right, and
each declared stage appears exactly once in ``result``.  Functions are
opaque to everything except the interpreter: only their signatures and
declared structure (``elementwise``/``foldof``) matter to the derivation
rules.
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
    Step,
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

# Each definition's keyword, its class, and the number of words after the
# keyword: a primitive or function name, then a size for a wrapper.
_DEFNS = {
    "prim": (PrimDef, 1),
    "elementwise": (ElementwiseDef, 1),
    "foldof": (FoldOfDef, 1),
    "wrapelem": (WrapElemDef, 2),
    "wrapfold": (WrapFoldDef, 2),
}
_DEFN_KEYWORD = {cls: keyword for keyword, (cls, _) in _DEFNS.items()}


@dataclass(frozen=True)
class OpaqueFn:
    name: str
    sig: FnSig
    defn: Optional[FnDef] = None


def defn_sig(defn: FnDef, h: FnSig, k: int) -> Optional[FnSig]:
    """The signature of a function that ``defn`` defines over a function of
    signature h, or None when h does not fit ``defn``.  An ``elementwise`` or
    ``foldof`` function is taken at chunk width k; a ``wrapelem`` or
    ``wrapfold`` function replicates to its own ``k``."""
    args, ret = h.args, h.ret
    if isinstance(defn, ElementwiseDef) and len(args) == 1:
        return FnSig((Vec(k, args[0]),), Vec(k, ret))
    if isinstance(defn, FoldOfDef) and len(args) == 2 and args[0] == ret:
        return FnSig((ret, Vec(k, args[1])), ret)
    if isinstance(defn, WrapElemDef) and len(args) == 1:
        if all(isinstance(t, Vec) and t.size == defn.k for t in (args[0], ret)):
            return FnSig((args[0].element,), ret.element)
    if isinstance(defn, WrapFoldDef) and len(args) == 2 and args[0] == ret:
        if isinstance(args[1], Vec) and args[1].size == defn.k:
            return FnSig((ret, args[1].element), ret)
    return None


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
class ReshapeStage:
    """``reshapeTo k`` holds ``Increase(k)`` and ``reshapeFrom k``
    ``Decrease(k)``: the step types the stage and runs it on values."""

    step: Step


# Not a stage: only perfbench/run.py reads this name, and nothing builds one.
@dataclass(frozen=True)
class ComposedStage:
    stages: tuple["Stage", ...]


Stage = Union[MapStage, FoldStage, ZiptStage, UnziptStage, ReshapeStage]

# Each stage keyword and the stage class it names; a reshape's names its step.
_STAGES = {
    "map": MapStage,
    "foldl": FoldStage,
    "zipt": ZiptStage,
    "unzipt": UnziptStage,
    "reshapeTo": Increase,
    "reshapeFrom": Decrease,
}
_STAGE_KEYWORD = {cls: keyword for keyword, cls in _STAGES.items()}


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


def stage_output_type(
    stage: Stage, t: VecType, fns: dict[str, OpaqueFn], name: str = "?"
) -> VecType:
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
    if isinstance(stage, ReshapeStage):
        try:
            return step_apply(stage.step, t)
        except VectxError as e:
            _fail(name, f"{print_stage(stage)}: {e}")
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
    # an elementwise or foldof function is taken at the width of its last
    # argument; when that is no vector, the signatures differ at any width
    last = fn.sig.args[-1] if fn.sig.args else fn.sig.ret
    k = last.size if isinstance(last, Vec) else 1
    if fn.sig == defn_sig(d, h.sig, k):
        return
    kind = _DEFN_KEYWORD[type(d)]
    args = h.sig.args
    if isinstance(d, ElementwiseDef) and len(args) == 1:
        raise StageTypeError(
            f"fn {fn.name}: {kind} {h.name} needs signature "
            f"[{print_type(args[0])}]<k> -> [{print_type(h.sig.ret)}]<k>"
        )
    if isinstance(d, FoldOfDef) and len(args) == 2:
        raise StageTypeError(
            f"fn {fn.name}: {kind} {h.name} needs signature b -> [{print_type(args[1])}]<k> -> b"
        )
    raise StageTypeError(f"fn {fn.name}: {kind} signature mismatch")


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
    cls = _STAGES.get(kind)
    if cls is MapStage:
        if arg not in fns:
            raise ParseError(f"undeclared function {arg!r}", line=line_no)
        return MapStage(arg)
    if cls is FoldStage:
        sub = arg.split(None, 1)
        if len(sub) != 2:
            raise ParseError(f"{kind} needs a function and an accumulator", line=line_no)
        if sub[0] not in fns:
            raise ParseError(f"undeclared function {sub[0]!r}", line=line_no)
        try:
            acc = parse_value(sub[1])
        except ParseError as e:
            raise ParseError(f"bad accumulator literal: {e}", line=line_no)
        return FoldStage(sub[0], acc)
    if cls in (Increase, Decrease):
        return ReshapeStage(cls(_parse_size(arg, kind, line_no)))
    if cls is None:
        raise ParseError(f"unknown stage kind {kind!r}", line=line_no)
    if arg:
        raise ParseError(f"{kind} takes no argument", line=line_no)
    return cls()


def parse_program(text: str) -> Program:
    input_name = None
    input_type = None
    fns: dict[str, OpaqueFn] = {}
    sigs: dict[str, FnSig] = {}
    defs: dict[str, FnDef] = {}
    order: list[str] = []
    stage_bodies: dict[str, tuple[str, int]] = {}
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
                cls, width = _DEFNS.get(kind, (None, 0))
                if cls is None or len(words) != 1 + width:
                    raise ParseError(f"bad function definition {body.strip()!r}", line=line_no)
                defs[name] = cls(words[1], *(_parse_size(w, kind, line_no) for w in words[2:]))
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

    parsed_stages = {
        name: _parse_stage(body, fns, line_no) for name, (body, line_no) in stage_bodies.items()
    }

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
        if seg not in stage_bodies:
            raise ParseError(f"undeclared stage {seg!r}", line=line_no)
        if seg not in parsed_stages:  # popped at its first use
            raise ParseError(f"stage {seg!r} used twice in result", line=line_no)
        pipeline.append((seg, parsed_stages.pop(seg)))
    if parsed_stages:
        raise ParseError(f"stages never used in result: {', '.join(sorted(parsed_stages))}")
    return Program(input_name, input_type, fns, tuple(pipeline), result_name)


# ---------------------------------------------------------------------------
# Printing


def _print_defn(d: FnDef) -> str:
    return " ".join([_DEFN_KEYWORD[type(d)], *map(str, vars(d).values())])


def print_stage(s: Stage) -> str:
    if isinstance(s, ReshapeStage):
        return f"{_STAGE_KEYWORD[type(s.step)]} {s.step.k}"
    kind = _STAGE_KEYWORD[type(s)]
    if isinstance(s, MapStage):
        return f"{kind} {s.fn}"
    if isinstance(s, FoldStage):
        return f"{kind} {s.fn} {print_value(s.acc)}"
    return kind


def fresh_name(base: str, used: set[str]) -> str:
    """``base``, with ``_`` appended until it is not in ``used``; the name
    is added to ``used``."""
    name = base
    while name in used:
        name += "_"
    used.add(name)
    return name


def print_program(program: Program) -> str:
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
