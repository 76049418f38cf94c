"""Derive transformed pipelines from transforms of their input types.

An input transform is first factored into canonical steps, each acting on
the outer dimensions of the current type:

    Increase(k)   [t]<N>      -> [[t]<k>]<N/k>   (chunk into k-groups)
    Decrease(k)   [[t]<k>]<m> -> [t]<k*m>        (flatten one level)

A reshape goes between vector types, and the steps between two types are
worked out once, by ``type_algebra.steps_between``, from the source type and
the type the transform reaches.  They flatten the source's outer levels and
then chunk towards the target's, cancelling each level the two share, so a
re-chunk of ``[[t]<k>]<m>`` to ``[[t]<n>]<k*m/n>`` is the two steps
Decrease(k), Increase(n).

Each step is then pushed through the pipeline one stage at a time.  A stage
consumes the steps arriving at its input and emits the steps describing how
its output type moved; those become the next stage's context.  The rules
are one table, ``RULES``, keyed by stage kind and step kind; each rewrites a
stage into a short run of stages:

  map f,     Increase:    f lifted to k-chunks, always preserved.
  foldl f    Decrease:    h if f is declared as h lifted, else f wrapped to
                          take each element replicated into a k-chunk;
                          preserved only under that condition, or at k = 1,
                          where the wrapping is exact for any f.  Where f
                          changes the shape of its chunk, no wrapping types,
                          and the stage is conjugated.
  zipt       Increase:    zipt then map zipt (zipt').
  unzipt     Increase:    map unzipt then unzipt (unzipt').
  otherwise  conjugate: the reshape that undoes the step, then the stage.

The two chunk rules read one row per stage kind (``_CHUNK``):

  map f      elementwise f and wrapelem f k, named f__m<k> and f__we<k>;
             the condition f = map h; the step passes on.
  foldl f    foldof f and wrapfold f k, named f__f<k> and f__wf<k>; the
             condition f = foldl h; the step is consumed.

A re-chunk reaches a ``map`` or ``foldl`` as two steps and takes the
Decrease rule and then the Increase rule, so its verdict is the two
verdicts combined: a chunk function reused at another width is preserved
only under the Decrease rule's condition.

A later step is pushed through the run its stage has become, left to right,
until some stage consumes it (``derive_step``).  Derived programs are flat:
a stage derived into several is named ``t_1``, ``t_2``, ...

The resulting derivation records the core program (which consumes the
transformed input), a boundary form wrapped in reshape stages so that it
consumes the original input and returns the original's result type, the
steps relating the two results, and a verdict.  ``verify`` replays the
original and boundary programs on seeded random inputs and compares their
results exactly.  It runs them on the inputs' leaf columns
(``runtime.compile_columns``), where reshape, ``zipt`` and ``unzipt`` stages
move no leaf; a program with a stage that has no column form runs on values
by ``compile_program``.  Its report, counterexample included, is what
running ``eval_program`` on each input would give.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Union, get_args

from .errors import DerivationError, VectxError
from .program_ir import (
    ElementwiseDef,
    FnSig,
    FoldOfDef,
    FoldStage,
    MapStage,
    OpaqueFn,
    PrimDef,
    Program,
    ReshapeStage,
    Stage,
    TypedProgram,
    UnziptStage,
    WrapElemDef,
    WrapFoldDef,
    ZiptStage,
    defn_sig,
    fresh_name,
    print_stage,
    stage_output_type,
    typecheck,
)
from .runtime import (
    Columns,
    Value,
    compile_columns,
    compile_program,
    leaf_columns,
    primitive_type,
    random_value,
)
from .type_algebra import (
    Decrease,
    Increase,
    Pair,
    Step,
    Transform,
    Vec,
    VecType,
    apply_transform,
    invert_step,
    print_step,
    print_type,
    step_apply,
    steps_between,
)

# ---------------------------------------------------------------------------
# Canonical steps


def factor_transform(tr: Transform, t: VecType) -> tuple[Step, ...]:
    """Rewrite a transform of t into canonical steps with the same effect."""
    target = apply_transform(tr, t)
    try:
        steps = steps_between(t, target)
    except VectxError as e:
        raise DerivationError(str(e)) from e
    cur = t
    for step in steps:
        cur = step_apply(step, cur)
    if cur != target:
        raise DerivationError(
            f"internal: steps reach {print_type(cur)}, not {print_type(target)}"
        )
    return steps


# ---------------------------------------------------------------------------
# Verdicts


@dataclass(frozen=True)
class Preserved:
    pass


@dataclass(frozen=True)
class ConditionallyPreserved:
    condition: str
    satisfied: bool


Verdict = Union[Preserved, ConditionallyPreserved]


def _rank(v: Verdict) -> int:
    if isinstance(v, Preserved):
        return 0
    return 1 if v.satisfied else 2


def combine_verdicts(verdicts) -> Verdict:
    worst: Verdict = Preserved()
    conditions: list[str] = []
    for v in verdicts:
        if _rank(v) > _rank(worst):
            worst = v
            conditions = []
        if isinstance(v, ConditionallyPreserved) and _rank(v) == _rank(worst):
            if v.condition not in conditions:
                conditions.append(v.condition)
    if isinstance(worst, ConditionallyPreserved) and len(conditions) > 1:
        return ConditionallyPreserved("; ".join(conditions), worst.satisfied)
    return worst


def expects_preservation(v: Verdict) -> bool:
    return isinstance(v, Preserved) or (
        isinstance(v, ConditionallyPreserved) and v.satisfied
    )


# ---------------------------------------------------------------------------
# Per-stage rules


def _ensure(fns: dict[str, OpaqueFn], fn: OpaqueFn) -> str:
    """Add fn to fns and return its name there: an identical entry is reused,
    and on a collision with another function ``_`` is appended to the name."""
    name = fn.name
    while name in fns:
        if fns[name] == replace(fn, name=name):
            return name
        name += "_"
    fns[name] = replace(fn, name=name)
    return name


@dataclass(frozen=True)
class StepResult:
    """The stages that replace a stage, or a run of stages, under one step;
    the step that leaves them (``None`` once consumed); the verdict; and the
    ``RULES`` names applied, in order: from a rule, only where it fell back
    to another rule, and from ``derive_step``, all of them."""

    stages: tuple[Stage, ...]
    out_step: Optional[Step]
    verdict: Verdict
    rules: tuple[str, ...] = ()


class _Chunk(NamedTuple):
    """The chunk rules' row for a stage kind (see the module docstring): how
    f is lifted and wrapped, with name tags, the condition that f is h
    lifted, and whether the step passes on."""

    lift: type
    lift_tag: str
    wrap: type
    wrap_tag: str
    condition: str
    passes: bool


_CHUNK = {
    MapStage: _Chunk(ElementwiseDef, "m", WrapElemDef, "we", "f = map h", True),
    FoldStage: _Chunk(FoldOfDef, "f", WrapFoldDef, "wf", "f = foldl h", False),
}


def _chunk_increase(
    step: Increase, stage: Union[MapStage, FoldStage], in_type: VecType, fns: dict[str, OpaqueFn]
) -> StepResult:
    """f lifted to k-chunks: always preserved."""
    row, fn, k = _CHUNK[type(stage)], fns[stage.fn], step.k
    lift = row.lift(fn.name)
    sig = defn_sig(lift, fn.sig, k)
    if sig is None:
        raise DerivationError(f"cannot lift {print_stage(stage)} to {k}-chunks")
    lifted = OpaqueFn(f"{fn.name}__{row.lift_tag}{k}", sig, lift)
    out_step = step if row.passes else None
    return StepResult((replace(stage, fn=_ensure(fns, lifted)),), out_step, Preserved())


def _chunk_decrease(
    step: Decrease, stage: Union[MapStage, FoldStage], in_type: VecType, fns: dict[str, OpaqueFn]
) -> StepResult:
    """h where f is declared as h lifted (the condition holds); otherwise f
    wrapped to replicate into it and project (the condition does not hold;
    it counts as holding at k = 1, where the wrapping is exact for any f).
    Where f changes the shape of its chunk, no wrapping types: the stage is
    conjugated, which is exact."""
    row, fn, k = _CHUNK[type(stage)], fns[stage.fn], step.k
    wrap = row.wrap(fn.name, k)
    sig = defn_sig(wrap, fn.sig, k)
    if sig is None:
        return replace(_conjugate(step, stage, in_type, fns), rules=("conjugate",))
    lifted = isinstance(fn.defn, row.lift)
    wrapped = OpaqueFn(f"{fn.name}__{row.wrap_tag}{k}", sig, wrap)
    name = fn.defn.fn if lifted else _ensure(fns, wrapped)
    verdict = ConditionallyPreserved(row.condition, lifted or k == 1)
    return StepResult((replace(stage, fn=name),), step if row.passes else None, verdict)


def _zipt_increase(
    step: Increase, stage: ZiptStage, in_type: Pair, fns: dict[str, OpaqueFn]
) -> StepResult:
    """zipt of the pair of chunked vectors, then zipt of each pair of chunks."""
    chunks = primitive_type("zipt", (step_apply(step, in_type),)).element
    pair_fn = _prim_fn("ztp", "zipt", chunks)
    return StepResult((stage, MapStage(_ensure(fns, pair_fn))), step, Preserved())


def _unzipt_increase(
    step: Increase, stage: UnziptStage, in_type: Vec, fns: dict[str, OpaqueFn]
) -> StepResult:
    """unzipt of each chunk of pairs, then unzipt of the vector it gives."""
    unpair_fn = _prim_fn("uztp", "unzipt", step_apply(step, in_type).element)
    return StepResult((MapStage(_ensure(fns, unpair_fn)), stage), step, Preserved())


def _prim_fn(name: str, prim: str, arg: VecType) -> OpaqueFn:
    """Function ``name``, primitive ``prim`` over one argument of type arg."""
    return OpaqueFn(name, FnSig((arg,), primitive_type(prim, (arg,))), PrimDef(prim))


def _conjugate(step: Step, stage: Stage, in_type: VecType, fns: dict[str, OpaqueFn]) -> StepResult:
    """Undo the input step, then run the original stage unchanged."""
    return StepResult((ReshapeStage(invert_step(step)), stage), None, Preserved())


Rule = Callable[[Step, Stage, VecType, dict[str, OpaqueFn]], StepResult]

# (stage kind, step kind) -> (rule name, rule): the paper's derivation rules.
RULES: dict[tuple[type, type], tuple[str, Rule]] = {
    **{
        (kind, step_kind): ("conjugate", _conjugate)
        for kind in (ZiptStage, UnziptStage, ReshapeStage)
        for step_kind in get_args(Step)
    },
    (MapStage, Increase): ("map-Increase", _chunk_increase),
    (MapStage, Decrease): ("map-Decrease", _chunk_decrease),
    (FoldStage, Increase): ("fold-Increase", _chunk_increase),
    (FoldStage, Decrease): ("fold-Decrease", _chunk_decrease),
    (ZiptStage, Increase): ("zipt'", _zipt_increase),
    (UnziptStage, Increase): ("unzipt'", _unzipt_increase),
}


def derive_step(
    step: Step, stages: tuple[Stage, ...], in_type: VecType, fns: dict[str, OpaqueFn]
) -> StepResult:
    """Push a step through a run of stages, first to last, each rewritten by
    its ``RULES`` entry, until one consumes it.  ``in_type`` is the run's
    input type before the step; a later stage is typed only if the step
    reaches it."""
    out: list[Stage] = []
    verdicts: list[Verdict] = []
    rules: list[str] = []
    for i, stage in enumerate(stages):
        if step is None:
            out += stages[i:]
            break
        if i:
            in_type = stage_output_type(stages[i - 1], in_type, fns)
        name, rule = RULES[type(stage), type(step)]
        res = rule(step, stage, in_type, fns)
        out += res.stages
        verdicts.append(res.verdict)
        rules += res.rules or (name,)
        step = res.out_step
    return StepResult(tuple(out), step, combine_verdicts(verdicts), tuple(rules))


# ---------------------------------------------------------------------------
# Whole-pipeline derivation


@dataclass(frozen=True)
class StageRecord:
    """One stage of the original program: the steps that reach it and leave
    it, its verdict, and the ``RULES`` names applied to it, in order."""

    name: str
    in_steps: tuple[Step, ...]
    out_steps: tuple[Step, ...]
    verdict: Verdict
    rules: tuple[str, ...]


@dataclass(frozen=True)
class Derivation:
    original: Program
    input_steps: tuple[Step, ...]
    derived: Program
    boundary: Program
    output_steps: tuple[Step, ...]
    verdict: Verdict
    stage_records: tuple[StageRecord, ...]


def derive(program: Program, tr: Transform) -> Derivation:
    """Infer the pipeline induced by transforming the program's input type."""
    typed = typecheck(program)
    input_steps = factor_transform(tr, program.input_type)
    fns = dict(program.fns)

    cur_steps: list[Step] = list(input_steps)
    derived_stages: list[tuple[str, Stage]] = []
    used = {name for name, _ in program.stages}
    records: list[StageRecord] = []
    all_verdicts: list[Verdict] = []

    for (name, stage), (in_t, _out_t) in zip(program.stages, typed.stage_types):
        stages: tuple[Stage, ...] = (stage,)
        cur_in = in_t
        out_steps: list[Step] = []
        stage_verdicts: list[Verdict] = []
        rules: list[str] = []
        for step in cur_steps:
            try:
                next_in = step_apply(step, cur_in)
            except VectxError as e:
                raise DerivationError(
                    f"stage {name}: step '{print_step(step)}' does not apply "
                    f"to {print_type(cur_in)}: {e}"
                ) from e
            try:
                res = derive_step(step, stages, cur_in, fns)
            except DerivationError as e:
                raise DerivationError(f"stage {name}: {e}") from e
            stages = res.stages
            cur_in = next_in
            if res.out_step is not None:
                out_steps.append(res.out_step)
            stage_verdicts.append(res.verdict)
            rules += res.rules
        if len(stages) == 1:
            derived_stages.append((name, stages[0]))
        else:  # a stage derived into several is named t_1, t_2, ...
            derived_stages += [
                (fresh_name(f"{name}_{i}", used), st) for i, st in enumerate(stages, start=1)
            ]
        records.append(
            StageRecord(
                name,
                tuple(cur_steps),
                tuple(out_steps),
                combine_verdicts(stage_verdicts),
                tuple(rules),
            )
        )
        all_verdicts.extend(stage_verdicts)
        cur_steps = out_steps

    output_steps = tuple(cur_steps)
    verdict = combine_verdicts(all_verdicts)
    transformed_input = apply_transform(tr, program.input_type)
    derived = Program(
        program.input_name,
        transformed_input,
        fns,
        tuple(derived_stages),
        program.result_name,
    )

    pre = [
        (fresh_name(f"pre_{i}", used), ReshapeStage(step))
        for i, step in enumerate(input_steps, start=1)
    ]
    post = [
        (fresh_name(f"post_{i}", used), ReshapeStage(invert_step(step)))
        for i, step in enumerate(reversed(output_steps), start=1)
    ]
    boundary = Program(
        program.input_name,
        program.input_type,
        fns,
        tuple(pre) + tuple(derived_stages) + tuple(post),
        program.result_name,
    )
    # The pre_i steps reach derived.input_type (factor_transform checks it),
    # so this types the derived stages too.
    boundary_result = typecheck(boundary).result_type
    if boundary_result != typed.result_type:
        raise DerivationError(
            f"internal: boundary result type {print_type(boundary_result)} "
            f"does not match the original's {print_type(typed.result_type)}"
        )

    return Derivation(
        original=program,
        input_steps=input_steps,
        derived=derived,
        boundary=boundary,
        output_steps=output_steps,
        verdict=verdict,
        stage_records=tuple(records),
    )


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class VerifyReport:
    trials: int
    passes: int
    failures: int
    first_counterexample: Optional[tuple[Value, Value, Value]]
    expects_preservation: bool

    @property
    def hard_failure(self) -> bool:
        return self.expects_preservation and self.failures > 0


def verify(d: Derivation, trials: int = 100, seed: int = 0) -> VerifyReport:
    """Replay the original and boundary programs on seeded random inputs of
    the original's input type and compare their results exactly.

    The boundary program is the derived one between the reshapes of its
    input and output types, so it is the derivation's claim as it runs.
    Each input is drawn by ``random_value`` and taken to leaf columns once,
    and each program runs on them as ``compile_columns`` compiles it; a
    program that has a stage with no column rule runs on the input value by
    its ``compile_program`` closure, and its result is taken to leaf
    columns.  Two results at one type are equal exactly when their columns
    are.  The first counterexample is run again by both reference closures,
    so it holds the values ``eval_program`` returns.
    """
    if trials < 0:
        raise VectxError(f"verify needs trials >= 0, got {trials}")
    rng = random.Random(seed)
    input_type = d.original.input_type
    run_original, run_boundary = _column_runs(d)
    passes = 0
    first = None
    for _ in range(trials):
        v = random_value(input_type, rng)
        columns = leaf_columns(v, input_type)
        if run_original(v, columns) == run_boundary(v, columns):
            passes += 1
        elif first is None:
            first = v
    if first is not None:
        first = (first, compile_program(d.original)(first), compile_program(d.boundary)(first))
    return VerifyReport(
        trials=trials,
        passes=passes,
        failures=trials - passes,
        first_counterexample=first,
        expects_preservation=expects_preservation(d.verdict),
    )


def _column_runs(d: Derivation) -> list[Callable[[Value, Columns], object]]:
    """For the original and the boundary program, ``v, columns -> result``
    on an input v whose leaf columns are ``columns``.  A result is its leaf
    columns: a well-typed program's result conforms to its result type.
    Columns stand for values only at one type: if the two programs do not
    typecheck to the same input and result types, each result is the value
    itself in a list, which compares as the values do."""
    programs = (d.original, d.boundary)
    try:
        typed = [typecheck(p) for p in programs]
    except VectxError:
        typed = [None, None]
    if len({(t.program.input_type, t.result_type) for t in typed if t is not None}) != 1:
        typed = [None, None]
    return [_column_run(p, t) for p, t in zip(programs, typed)]


def _column_run(
    program: Program, typed: Optional[TypedProgram]
) -> Callable[[Value, Columns], object]:
    """One program's run for ``_column_runs``: on columns where
    ``compile_columns`` compiles it, else on values by its
    ``compile_program`` closure; untyped, its result is a value in a list."""
    native = None if typed is None else compile_columns(typed)
    if native is not None:
        return lambda v, columns: native(columns)
    run = compile_program(program)
    if typed is None:
        return lambda v, columns: [run(v)]
    return lambda v, columns: leaf_columns(run(v), typed.result_type)
