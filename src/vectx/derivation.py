"""Derive transformed pipelines from transforms of their input types.

An input transform is first factored into canonical steps (defined in
``type_algebra``), each acting on the outer dimensions of the current type:

    Increase(k)        [t]<N>      -> [[t]<k>]<N/k>     (chunk into k-groups)
    Decrease(k)        [[t]<k>]<m> -> [t]<k*m>          (flatten one level)
    Repartition(n, k)  [[t]<k>]<m> -> [[t]<n>]<k*m/n>   (re-chunk)

A transform that uses ``V`` is not a reshape and is rejected.

Each step is then pushed through the pipeline one stage at a time.  A stage
consumes the steps arriving at its input and emits the steps describing how
its output type moved; those become the next stage's context.  The rules:

  map f      Increase:    map (map f), always preserved.
             Decrease:    f' = head . f . replicate, preserved only when
                          f is declared elementwise (then f' is just the
                          declared element function).
             Repartition: decrease then increase.
  foldl f    Increase:    fold the fold over each chunk, always preserved.
             Decrease:    f' acc x = f acc (replicate k x), preserved only
                          when f is a declared fold (then f' is the declared
                          step function).
             Repartition: decrease then increase.
  zipt       Increase:    map zipt . zipt; otherwise conjugate with the
                          reshapes that undo the step.
  unzipt     Increase:    unzipt . map unzipt.
  reshape    conjugated with the undoing reshapes.

The resulting derivation records the core program (which consumes the
transformed input), a boundary form wrapped in reshape stages so that it
consumes the original input, the transform relating the two results, and a
verdict.  ``verify`` replays both programs on seeded random inputs and
compares exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional, Union

from .errors import DerivationError, VectxError
from .program_ir import (
    ComposedStage,
    ElementwiseDef,
    FnSig,
    FoldOfDef,
    FoldStage,
    MapStage,
    OpaqueFn,
    PrimDef,
    Program,
    ReshapeFromStage,
    ReshapeToStage,
    Stage,
    UnziptStage,
    WrapElemDef,
    WrapFoldDef,
    ZiptStage,
    fresh_name,
    print_stage,
    stage_output_type,
    typecheck,
)
from .runtime import (
    Value,
    apply_transform_value,
    eval_program,
    random_value,
)
from .type_algebra import (
    IDENTITY,
    Decrease,
    Increase,
    Pair,
    Repartition,
    Step,
    Transform,
    Vec,
    VecType,
    apply_transform,
    compose,
    dims_of,
    invert_step,
    invert_transform,
    leaf_of,
    print_op,
    print_step,
    print_type,
    step_apply,
    step_transform,
    total_size,
    wrap_op,
)

# ---------------------------------------------------------------------------
# Canonical steps


def steps_to_transform(steps) -> Transform:
    tr = IDENTITY
    for step in steps:
        tr = compose(step_transform(step), tr)
    return tr


def _steps_between_dims(src: tuple[int, ...], tgt: tuple[int, ...]) -> list[Step]:
    down = [Decrease(d) for d in reversed(src[:-1])]
    up = [Increase(d) for d in tgt[:-1]]
    middle: list[Step] = []
    while down and up:
        k, n = down[-1].k, up[0].k
        down.pop()
        up.pop(0)
        if k != n:
            middle = [Repartition(n, k)]
            break
    return down + middle + up


def factor_transform(tr: Transform, t: VecType) -> tuple[Step, ...]:
    """Rewrite a transform of t into canonical steps with the same effect."""
    op = wrap_op(tr)
    if op is not None:
        raise DerivationError(
            f"{print_op(op)} replicates or projects, so it is not a reshape and has no derivation"
        )
    target = apply_transform(tr, t)
    steps = _factor_between(t, target)
    cur = t
    for step in steps:
        cur = step_apply(step, cur)
    if cur != target:
        raise DerivationError(
            f"internal: steps reach {print_type(cur)}, not {print_type(target)}"
        )
    return tuple(steps)


def _factor_between(t: VecType, target: VecType) -> list[Step]:
    if isinstance(t, Pair) or isinstance(target, Pair):
        if isinstance(t, Vec) or isinstance(target, Vec):
            raise DerivationError(
                f"cannot factor between {print_type(t)} and {print_type(target)}"
            )
        steps = _factor_between(t.fst, target.fst)
        if steps != _factor_between(t.snd, target.snd):
            raise DerivationError(
                "both components of a pair must be transformed identically"
            )
        return steps
    if leaf_of(t) != leaf_of(target) or total_size(t) != total_size(target):
        raise DerivationError(
            f"no step sequence from {print_type(t)} to {print_type(target)}"
        )
    if not isinstance(t, Vec) or not isinstance(target, Vec):
        if t == target:
            return []
        raise DerivationError(f"cannot reshape a bare {print_type(t)}")
    return _steps_between_dims(dims_of(t), dims_of(target))


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


def print_verdict(v: Verdict) -> str:
    if isinstance(v, Preserved):
        return "Preserved"
    state = "satisfied" if v.satisfied else "unsatisfied"
    return f"ConditionallyPreserved({v.condition}; {state})"


# ---------------------------------------------------------------------------
# Function table for derived programs


class _FnTable:
    def __init__(self, base: dict[str, OpaqueFn]):
        self.fns = dict(base)

    def __getitem__(self, name: str) -> OpaqueFn:
        return self.fns[name]

    def ensure(self, fn: OpaqueFn) -> str:
        """Insert fn, reusing an identical entry or renaming on collision."""
        name = fn.name
        if self.fns.get(name) == fn:
            return name
        while name in self.fns:
            existing = self.fns[name]
            if existing == replace(fn, name=name):
                return name
            name += "_"
        self.fns[name] = replace(fn, name=name)
        return name


# ---------------------------------------------------------------------------
# Per-stage rules


@dataclass(frozen=True)
class StepResult:
    stage: Stage
    out_step: Optional[Step]
    verdict: Verdict
    combinators: frozenset[str]


def derive_map_step(step: Step, stage: MapStage, in_type: VecType, table: _FnTable) -> StepResult:
    fn = table[stage.fn]
    arg, ret = fn.sig.args[0], fn.sig.ret
    if isinstance(step, Increase):
        k = step.k
        lifted = OpaqueFn(
            f"{fn.name}__m{k}",
            FnSig((Vec(k, arg),), Vec(k, ret)),
            ElementwiseDef(fn.name),
        )
        return StepResult(
            MapStage(table.ensure(lifted)), Increase(k), Preserved(), frozenset()
        )
    if isinstance(step, Decrease):
        k = step.k
        if not (isinstance(arg, Vec) and arg.size == k and isinstance(ret, Vec) and ret.size == k):
            raise DerivationError(
                f"cannot flatten map {fn.name}: its signature is not "
                f"[t]<{k}> -> [t']<{k}>"
            )
        condition = "f = map h"
        if isinstance(fn.defn, ElementwiseDef):
            return StepResult(
                MapStage(fn.defn.fn),
                Decrease(k),
                ConditionallyPreserved(condition, True),
                frozenset(),
            )
        wrapped = OpaqueFn(
            f"{fn.name}__we{k}",
            FnSig((arg.element,), ret.element),
            WrapElemDef(fn.name, k),
        )
        return StepResult(
            MapStage(table.ensure(wrapped)),
            Decrease(k),
            ConditionallyPreserved(condition, False),
            frozenset({f"toVector {k}", f"fromVector {k}"}),
        )
    return _decrease_then_increase(derive_map_step, step, stage, in_type, table)


def derive_fold_step(step: Step, stage: FoldStage, in_type: VecType, table: _FnTable) -> StepResult:
    fn = table[stage.fn]
    if len(fn.sig.args) != 2:
        raise DerivationError(f"fold function {fn.name} must take two arguments")
    acc_t, elem_t = fn.sig.args
    if isinstance(step, Increase):
        k = step.k
        folded = OpaqueFn(
            f"{fn.name}__f{k}",
            FnSig((acc_t, Vec(k, elem_t)), acc_t),
            FoldOfDef(fn.name),
        )
        return StepResult(
            FoldStage(table.ensure(folded), stage.acc), None, Preserved(), frozenset()
        )
    if isinstance(step, Decrease):
        k = step.k
        if not (isinstance(elem_t, Vec) and elem_t.size == k):
            raise DerivationError(
                f"cannot flatten fold {fn.name}: it does not consume [t]<{k}> chunks"
            )
        condition = "f = foldl h"
        if isinstance(fn.defn, FoldOfDef):
            return StepResult(
                FoldStage(fn.defn.fn, stage.acc),
                None,
                ConditionallyPreserved(condition, True),
                frozenset(),
            )
        wrapped = OpaqueFn(
            f"{fn.name}__wf{k}",
            FnSig((acc_t, elem_t.element), acc_t),
            WrapFoldDef(fn.name, k),
        )
        return StepResult(
            FoldStage(table.ensure(wrapped), stage.acc),
            None,
            ConditionallyPreserved(condition, False),
            frozenset({f"toVector {k}"}),
        )
    return _decrease_then_increase(derive_fold_step, step, stage, in_type, table)


def _decrease_then_increase(
    rule, step: Repartition, stage: Stage, in_type: VecType, table: _FnTable
) -> StepResult:
    """A Repartition as flatten then re-chunk, each through the stage's rule.
    A chunk function need not work at another width, so the verdict is the
    conjunction of the two."""
    dec = rule(Decrease(step.k), stage, in_type, table)
    inc = rule(Increase(step.n), dec.stage, step_apply(Decrease(step.k), in_type), table)
    return StepResult(
        inc.stage,
        None if inc.out_step is None else step,
        combine_verdicts([dec.verdict, inc.verdict]),
        dec.combinators | inc.combinators,
    )


def _realize_stages(step: Step) -> tuple[Stage, ...]:
    """Stages that perform a step on values; those that undo it perform
    ``invert_step(step)``."""
    if isinstance(step, Increase):
        return (ReshapeToStage(step.k),)
    if isinstance(step, Decrease):
        return (ReshapeFromStage(step.k),)
    return (ReshapeFromStage(step.k), ReshapeToStage(step.n))


def _conjugate(step: Step, stage: Stage) -> StepResult:
    """Undo the input step, then run the original stage unchanged."""
    undo = _realize_stages(invert_step(step))
    return StepResult(
        ComposedStage(undo + (stage,)), None, Preserved(), frozenset(map(print_stage, undo))
    )


def derive_zip_step(step: Step, stage: Stage, in_type: VecType, table: _FnTable) -> StepResult:
    if isinstance(stage, ZiptStage):
        if isinstance(step, Increase):
            k = step.k
            if not isinstance(in_type, Pair):
                raise DerivationError("zipt input must be a pair")
            e1 = in_type.fst.element
            e2 = in_type.snd.element
            pair_fn = OpaqueFn(
                "ztp",
                FnSig((Pair(Vec(k, e1), Vec(k, e2)),), Vec(k, Pair(e1, e2))),
                PrimDef("zipt"),
            )
            return StepResult(
                ComposedStage((ZiptStage(), MapStage(table.ensure(pair_fn)))),
                Increase(k),
                Preserved(),
                frozenset({"zipt'"}),
            )
        return _conjugate(step, stage)
    if isinstance(stage, UnziptStage):
        if isinstance(step, Increase):
            k = step.k
            if not (isinstance(in_type, Vec) and isinstance(in_type.element, Pair)):
                raise DerivationError("unzipt input must be a vector of pairs")
            e1 = in_type.element.fst
            e2 = in_type.element.snd
            unpair_fn = OpaqueFn(
                "uztp",
                FnSig((Vec(k, Pair(e1, e2)),), Pair(Vec(k, e1), Vec(k, e2))),
                PrimDef("unzipt"),
            )
            return StepResult(
                ComposedStage((MapStage(table.ensure(unpair_fn)), UnziptStage())),
                Increase(k),
                Preserved(),
                frozenset({"unzipt'"}),
            )
        return _conjugate(step, stage)
    raise DerivationError(f"derive_zip_step does not handle {stage!r}")


def _derive_one_step(step: Step, stage: Stage, in_type: VecType, table: _FnTable) -> StepResult:
    if isinstance(stage, MapStage):
        return derive_map_step(step, stage, in_type, table)
    if isinstance(stage, FoldStage):
        return derive_fold_step(step, stage, in_type, table)
    if isinstance(stage, (ZiptStage, UnziptStage)):
        return derive_zip_step(step, stage, in_type, table)
    if isinstance(stage, (ReshapeToStage, ReshapeFromStage)):
        return _conjugate(step, stage)
    if isinstance(stage, ComposedStage):
        cur_step: Optional[Step] = step
        cur_in = in_type
        subs: list[Stage] = []
        verdicts: list[Verdict] = []
        combos: frozenset[str] = frozenset()
        for sub in stage.stages:
            if cur_step is None:
                subs.append(sub)
            else:
                res = _derive_one_step(cur_step, sub, cur_in, table)
                subs.append(res.stage)
                verdicts.append(res.verdict)
                combos |= res.combinators
                cur_step = res.out_step
            cur_in = stage_output_type(sub, cur_in, table.fns)
        return StepResult(
            ComposedStage(tuple(subs)), cur_step, combine_verdicts(verdicts), combos
        )
    raise DerivationError(f"no derivation rule for stage {stage!r}")


# ---------------------------------------------------------------------------
# Whole-pipeline derivation


@dataclass(frozen=True)
class StageRecord:
    name: str
    in_steps: tuple[Step, ...]
    out_steps: tuple[Step, ...]
    verdict: Verdict


@dataclass(frozen=True)
class Derivation:
    original: Program
    input_transform: Transform
    input_steps: tuple[Step, ...]
    derived: Program
    boundary: Program
    output_transform: Transform
    output_steps: tuple[Step, ...]
    verdict: Verdict
    stage_records: tuple[StageRecord, ...]
    combinators: frozenset[str]


def derive(program: Program, tr: Transform) -> Derivation:
    """Infer the pipeline induced by transforming the program's input type."""
    typed = typecheck(program)
    input_steps = factor_transform(tr, program.input_type)
    table = _FnTable(program.fns)

    cur_steps: list[Step] = list(input_steps)
    derived_stages: list[tuple[str, Stage]] = []
    records: list[StageRecord] = []
    all_verdicts: list[Verdict] = []
    combinators: set[str] = set()

    for (name, stage), (in_t, _out_t) in zip(program.stages, typed.stage_types):
        cur_stage = stage
        cur_in = in_t
        out_steps: list[Step] = []
        stage_verdicts: list[Verdict] = []
        for step in cur_steps:
            try:
                next_in = step_apply(step, cur_in)
            except VectxError as e:
                raise DerivationError(
                    f"stage {name}: step '{print_step(step)}' does not apply "
                    f"to {print_type(cur_in)}: {e}"
                ) from e
            try:
                res = _derive_one_step(step, cur_stage, cur_in, table)
            except DerivationError as e:
                raise DerivationError(f"stage {name}: {e}") from e
            cur_stage = res.stage
            cur_in = next_in
            if res.out_step is not None:
                out_steps.append(res.out_step)
            stage_verdicts.append(res.verdict)
            combinators |= res.combinators
        derived_stages.append((name, cur_stage))
        records.append(
            StageRecord(
                name, tuple(cur_steps), tuple(out_steps), combine_verdicts(stage_verdicts)
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
        table.fns,
        tuple(derived_stages),
        program.result_name,
    )

    derived_typed = typecheck(derived)
    expected_result = apply_transform(
        steps_to_transform(output_steps), typed.result_type
    )
    if derived_typed.result_type != expected_result:
        raise DerivationError(
            f"internal: derived result type {print_type(derived_typed.result_type)} "
            f"does not match transformed original {print_type(expected_result)}"
        )

    used = {name for name, _ in derived_stages}
    pre: list[tuple[str, Stage]] = []
    for i, step in enumerate(input_steps, start=1):
        for st in _realize_stages(step):
            pre.append((fresh_name(f"pre_{i}", used), st))
    post: list[tuple[str, Stage]] = []
    for i, step in enumerate(reversed(output_steps), start=1):
        for st in _realize_stages(invert_step(step)):
            post.append((fresh_name(f"post_{i}", used), st))
    combinators |= {print_stage(st) for _, st in pre + post}
    boundary = Program(
        program.input_name,
        program.input_type,
        table.fns,
        tuple(pre) + tuple(derived_stages) + tuple(post),
        program.result_name,
    )

    return Derivation(
        original=program,
        input_transform=tr,
        input_steps=input_steps,
        derived=derived,
        boundary=boundary,
        output_transform=steps_to_transform(output_steps),
        output_steps=output_steps,
        verdict=verdict,
        stage_records=tuple(records),
        combinators=frozenset(combinators),
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
    """Compare original and derived programs on seeded random inputs.

    The derived result is mapped back through the inverse of the output
    transform before comparison; equality is exact.
    """
    rng = random.Random(seed)
    inverse_out = invert_transform(d.output_transform)
    passes = 0
    first = None
    for _ in range(trials):
        v = random_value(d.original.input_type, rng)
        lhs = eval_program(d.original, v)
        transformed = apply_transform_value(d.input_transform, v)
        rhs = apply_transform_value(inverse_out, eval_program(d.derived, transformed))
        if lhs == rhs:
            passes += 1
        elif first is None:
            first = (v, lhs, rhs)
    return VerifyReport(
        trials=trials,
        passes=passes,
        failures=trials - passes,
        first_counterexample=first,
        expects_preservation=expects_preservation(d.verdict),
    )
