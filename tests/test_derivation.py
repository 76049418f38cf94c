import hashlib
import random
from typing import get_args

import pytest

from gen import flatten, random_factorization, random_program_text, random_type
from vectx.derivation import (
    RULES,
    ConditionallyPreserved,
    Decrease,
    Increase,
    Preserved,
    combine_verdicts,
    derive,
    derive_step,
    expects_preservation,
    factor_transform,
    step_apply,
    verify,
)
from vectx.errors import DerivationError, ShapeError, VectxError
from vectx.program_ir import (
    ElementwiseDef,
    FoldStage,
    MapStage,
    ReshapeStage,
    Stage,
    WrapElemDef,
    ZiptStage,
    parse_program,
    print_program,
    typecheck,
)
from vectx.runtime import (
    TupVal,
    eval_program,
    print_value,
    random_value,
    reshape_to,
    zipt,
)
from vectx.type_algebra import (
    Atom,
    Pair,
    Step,
    apply_transform,
    from_dims,
    invert_step,
    parse_transform,
    parse_type,
    path_between,
    print_type,
    steps_between,
    steps_to_transform,
)

# -- factoring -----------------------------------------------------------------


def test_factor_chunking_is_single_increase():
    steps = factor_transform(parse_transform("R 4 M ( S )"), parse_type("[a]<16>"))
    assert steps == (Increase(4),)


def test_factor_flattening_is_single_decrease():
    steps = factor_transform(
        parse_transform("M ( S^-1 ) R^-1 3"), parse_type("[[a]<3>]<4>")
    )
    assert steps == (Decrease(3),)


def test_factor_rechunking_is_repartition():
    steps = factor_transform(
        parse_transform("R 6 R^-1 2"), parse_type("[[a]<2>]<6>")
    )
    assert steps == (Decrease(2), Increase(6))


def test_factor_identity_is_empty():
    assert factor_transform(parse_transform("I"), parse_type("[[a]<2>]<6>")) == ()


def test_factor_reproduces_arbitrary_transforms():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 64)
        t1 = random_type(rng, n)
        t2 = random_type(rng, n)
        tr = path_between(t1, t2)
        steps = factor_transform(tr, t1)
        cur = t1
        for step in steps:
            cur = step_apply(step, cur)
        assert cur == t2
        assert apply_transform(steps_to_transform(steps), t1) == t2
        kinds = [type(step) for step in steps]
        assert kinds == sorted(kinds, key=lambda kind: kind is Increase)
        # no Decrease(k) is directly followed by Increase(k)
        assert all(b != invert_step(a) for a, b in zip(steps, steps[1:]))


def test_path_between_is_the_transform_of_the_steps_between():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 64)
        t1, t2 = random_type(rng, n), random_type(rng, n)
        tr, steps = path_between(t1, t2), steps_between(t1, t2)
        assert factor_transform(tr, t1) == steps
        assert len(tr.ops) == 2 * len(steps)


# -- programs used below ---------------------------------------------------------


def map_program(n, fn="add1", defn=None):
    defn = defn or f"fn f = prim {fn}"
    return parse_program(
        f"input s :: [a]<{n}>\nfn f :: a -> a\n{defn}\nstage g = map f\nresult r = g s\n"
    )


CHUNKED_MAP = """\
input s :: [[a]<3>]<4>
fn h :: a -> a
fn h = prim add1
fn f :: [a]<3> -> [a]<3>
fn f = elementwise h
stage g = map f
result r = g s
"""

CHUNKED_MAP_OPAQUE = """\
input s :: [[a]<3>]<4>
fn f :: [a]<3> -> [a]<3>
fn f = prim reverse
stage g = map f
result r = g s
"""

FLAT_FOLD = """\
input s :: [a]<8>
fn f :: b -> a -> b
fn f = prim add
stage g = foldl f 0
result r = g s
"""

CHUNKED_FOLD = """\
input s :: [[a]<3>]<4>
fn h :: b -> a -> b
fn h = prim add
fn f :: b -> [a]<3> -> b
fn f = foldof h
stage g = foldl f 0
result r = g s
"""

CHUNKED_FOLD_OPAQUE = """\
input s :: [[a]<3>]<4>
fn f :: b -> [a]<3> -> b
fn f = prim add_head
stage g = foldl f 0
result r = g s
"""

ZIP_PROGRAM = """\
input s :: ([a]<4>,[b]<4>)
stage z = zipt
result r = z s
"""


def zip_swap_program(dims) -> str:
    """``zipt |> map swap |> unzipt`` over a pair of vectors of sizes dims."""
    a, b = (print_type(from_dims(Atom(x), dims[:-1])) for x in "ab")
    return (
        f"input s :: ({print_type(from_dims(Atom('a'), dims))},"
        f"{print_type(from_dims(Atom('b'), dims))})\n"
        f"fn f :: ({a},{b}) -> ({b},{a})\nfn f = prim swap\n"
        "stage z = zipt\nstage m = map f\nstage u = unzipt\nresult r = z |> m |> u s\n"
    )


# -- the rule table ---------------------------------------------------------------


def test_rules_cover_every_stage_and_step_kind():
    assert set(RULES) == {(kind, step) for kind in get_args(Stage) for step in get_args(Step)}


def test_stage_records_name_the_rules_applied():
    d = derive(parse_program(zip_swap_program((4,))), parse_transform("R 2 M ( S )"))
    assert [r.rules for r in d.stage_records] == [("zipt'",), ("map-Increase",), ("unzipt'",)]
    p = parse_program(CHUNKED_MAP_OPAQUE)
    d = derive(p, path_between(p.input_type, parse_type("[a]<6><2>")))
    assert d.input_steps == (Decrease(3), Increase(6))
    assert [r.rules for r in d.stage_records] == [("map-Decrease", "map-Increase")]


# -- map rules -------------------------------------------------------------------


def test_map_increase_lifts_function():
    p = map_program(6)
    table = dict(p.fns)
    res = derive_step(Increase(2), (p.stages[0][1],), p.input_type, table)
    assert res.stages == (MapStage("f__m2"),)
    assert table["f__m2"].defn == ElementwiseDef("f")
    assert res.verdict == Preserved()
    assert res.out_step == Increase(2)


def test_map_decrease_with_annotation_uses_element_function():
    p = parse_program(CHUNKED_MAP)
    table = dict(p.fns)
    res = derive_step(Decrease(3), (p.stages[0][1],), p.input_type, table)
    assert res.stages == (MapStage("h"),)
    assert res.verdict == ConditionallyPreserved("f = map h", True)


def test_map_decrease_without_annotation_wraps():
    p = parse_program(CHUNKED_MAP_OPAQUE)
    table = dict(p.fns)
    res = derive_step(Decrease(3), (p.stages[0][1],), p.input_type, table)
    assert res.stages == (MapStage("f__we3"),)
    assert table["f__we3"].defn == WrapElemDef("f", 3)
    assert res.verdict == ConditionallyPreserved("f = map h", False)


def rechunk(p, k: int, n: int) -> tuple:
    """Decrease(k) through p's one stage, then Increase(n) through the run
    that returns: the two steps of a re-chunk from width k to width n."""
    table = dict(p.fns)
    dec = derive_step(Decrease(k), (p.stages[0][1],), p.input_type, table)
    flat = step_apply(Decrease(k), p.input_type)
    return dec, derive_step(Increase(n), dec.stages, flat, table)


def test_map_repartition_reuses_function():
    # A re-chunk is Decrease then Increase: an opaque chunk function such as
    # reverse is not width-independent, so its reuse is conditional.
    target = parse_type("[a]<6><2>")
    p = parse_program(CHUNKED_MAP_OPAQUE)
    dec, inc = rechunk(p, 3, 6)
    verdict = combine_verdicts([dec.verdict, inc.verdict])
    assert verdict == ConditionallyPreserved("f = map h", False)
    d = derive(p, path_between(p.input_type, target))
    assert d.input_steps == (Decrease(3), Increase(6))
    rep = verify(d, trials=10, seed=1)
    assert rep.failures > 0 and not rep.hard_failure

    d = derive(parse_program(CHUNKED_MAP), path_between(p.input_type, target))
    assert expects_preservation(d.verdict)
    assert verify(d, trials=10, seed=1).failures == 0


def test_map_decrease_signature_mismatch():
    p = map_program(6)
    table = dict(p.fns)
    with pytest.raises(DerivationError):
        derive_step(Decrease(2), (p.stages[0][1],), p.input_type, table)


def test_flattening_a_chunk_map_that_changes_width_names_the_signature():
    p = parse_program(
        "input s :: [[a]<3>]<4>\nfn f :: [a]<3> -> a\nfn f = prim sum\n"
        "stage g = map f\nresult r = g s\n"
    )
    with pytest.raises(DerivationError) as info:
        derive(p, parse_transform("M ( S^-1 ) R^-1 3"))
    assert str(info.value) == "stage g: cannot flatten map f: its signature is not [t]<3> -> [t']<3>"


# -- fold rules -------------------------------------------------------------------


def test_fold_increase_folds_the_fold():
    p = parse_program(FLAT_FOLD)
    table = dict(p.fns)
    res = derive_step(Increase(2), (p.stages[0][1],), p.input_type, table)
    assert res.stages == (FoldStage("f__f2", 0),)
    assert res.out_step is None
    assert res.verdict == Preserved()


def test_fold_decrease_with_annotation():
    p = parse_program(CHUNKED_FOLD)
    table = dict(p.fns)
    res = derive_step(Decrease(3), (p.stages[0][1],), p.input_type, table)
    assert res.stages == (FoldStage("h", 0),)
    assert res.verdict == ConditionallyPreserved("f = foldl h", True)


def test_fold_decrease_without_annotation():
    p = parse_program(CHUNKED_FOLD_OPAQUE)
    table = dict(p.fns)
    res = derive_step(Decrease(3), (p.stages[0][1],), p.input_type, table)
    assert res.stages == (FoldStage("f__wf3", 0),)
    assert res.verdict == ConditionallyPreserved("f = foldl h", False)


def test_fold_repartition_is_decrease_then_increase():
    dec, inc = rechunk(parse_program(CHUNKED_FOLD), 3, 6)
    assert inc.stages == (FoldStage("h__f6", 0),)
    verdict = combine_verdicts([dec.verdict, inc.verdict])
    assert verdict == ConditionallyPreserved("f = foldl h", True)


# -- zip rules ----------------------------------------------------------------------


def test_zip_increase_is_map_zipt_after_zipt():
    p = parse_program(ZIP_PROGRAM)
    table = dict(p.fns)
    res = derive_step(Increase(2), (p.stages[0][1],), p.input_type, table)
    assert res.stages == (ZiptStage(), MapStage("ztp"))
    assert res.verdict == Preserved()


def test_zip_increase_flatten_oracle():
    rng = random.Random(9)
    p = parse_program(ZIP_PROGRAM)
    d = derive(p, parse_transform("R 2 M ( S )"))
    for _ in range(100):
        xs = random_value(parse_type("[a]<4>"), rng)
        ys = random_value(parse_type("[b]<4>"), rng)
        pair = TupVal(xs, ys)
        chunked = TupVal(reshape_to(2, xs), reshape_to(2, ys))
        out = eval_program(d.derived, chunked)
        assert flatten(out) == zipt(pair)


def test_zip_swap_unzip_chunked_derives_and_verifies():
    p = parse_program(
        """\
input s :: ([a]<4>,[a]<4>)
fn f :: (a,a) -> (a,a)
fn f = prim swap
stage z = zipt
stage m = map f
stage u = unzipt
result r = z |> m |> u s
"""
    )
    d = derive(p, parse_transform("R 2 M ( S )"))
    assert d.derived.input_type == parse_type("([a]<2><2>,[a]<2><2>)")
    assert d.verdict == Preserved()
    rep = verify(d, trials=100, seed=3)
    assert rep.failures == 0 and rep.passes == 100


def test_zip_derives_from_a_pair_path():
    p = parse_program(ZIP_PROGRAM.replace("<4>", "<8>"))
    tr = path_between(p.input_type, parse_type("([a]<2><4>,[b]<2><4>)"))
    d = derive(p, tr)
    assert d.input_steps == (Increase(2),)
    assert [st for _, st in d.derived.stages] == [ZiptStage(), MapStage("ztp")]
    assert verify(d, trials=20, seed=6).failures == 0


def test_zip_mismatched_component_transforms_rejected():
    p = parse_program(
        "input s :: ([a]<4>,[[b]<2>]<4>)\nstage z = zipt\nresult r = z s\n"
    )
    with pytest.raises(DerivationError):
        derive(p, parse_transform("M ( M ( S ) )"))


# -- whole-pipeline derivation -------------------------------------------------------


def test_derive_map_increase_end_to_end():
    p = map_program(8)
    d = derive(p, parse_transform("R 4 M ( S )"))
    assert d.verdict == Preserved()
    assert d.derived.input_type == parse_type("[[a]<4>]<2>")
    assert d.derived.stages == (("g", MapStage("f__m4")),)
    kinds = [stage for _, stage in d.boundary.stages]
    assert kinds == [ReshapeStage(Increase(4)), MapStage("f__m4"), ReshapeStage(Decrease(4))]
    text = print_program(d.boundary)
    assert "reshapeTo 4" in text and "reshapeFrom 4" in text


def test_derive_identity_is_unchanged():
    p = map_program(8)
    d = derive(p, parse_transform("I"))
    assert d.derived.stages == p.stages
    assert d.verdict == Preserved()
    assert d.output_steps == ()


def test_verify_refuses_inputs_past_max_leaves():
    p = parse_program("input s :: [a]<65536><65536>\nresult r = s\n")
    d = derive(p, parse_transform("I"))
    with pytest.raises(ShapeError, match="MAX_LEAVES"):
        verify(d, 1)


def test_verify_rejects_a_negative_trial_count():
    d = derive(map_program(4), parse_transform("I"))
    with pytest.raises(VectxError, match="trials >= 0, got -3"):
        verify(d, trials=-3)


def test_derive_two_stage_pipeline():
    p = parse_program(
        """\
input s :: [a]<8>
fn f :: a -> a
fn f = prim mul3
fn g :: b -> a -> b
fn g = prim add
stage m = map f
stage t = foldl g 0
result r = m |> t s
"""
    )
    d = derive(p, parse_transform("R 2 M ( S )"))
    assert d.derived.stages == (
        ("m", MapStage("f__m2")),
        ("t", FoldStage("g__f2", 0)),
    )
    assert d.output_steps == ()
    rep = verify(d, trials=100, seed=13)
    assert rep.passes == 100 and not rep.hard_failure


def test_two_stages_over_one_function_share_its_lifted_function():
    p = parse_program(
        """\
input s :: [a]<8>
fn f :: a -> a
fn f = prim mul3
stage m = map f
stage n = map f
result r = m |> n s
"""
    )
    d = derive(p, parse_transform("R 2 M ( S )"))
    assert d.derived.stages == (("m", MapStage("f__m2")), ("n", MapStage("f__m2")))
    assert list(d.derived.fns) == ["f", "f__m2"]
    assert d.derived.fns["f__m2"].defn == ElementwiseDef("f")

def test_derive_boundary_program_reproduces_original():
    rng = random.Random(21)
    p = map_program(12, fn="mul3")
    for tr_text in ("R 3 M ( S )", "R 2 M ( S )", "I"):
        d = derive(p, parse_transform(tr_text))
        assert typecheck(d.boundary).result_type == typecheck(p).result_type
        for _ in range(20):
            v = random_value(p.input_type, rng)
            assert eval_program(d.boundary, v) == eval_program(p, v)


def test_derive_rejects_replication():
    # V^-1 2 projects and M ( V 2 ) replicates: the sizes match a reshape's,
    # but the values do not, so there is nothing to derive.
    p = parse_program(CHUNKED_MAP.replace("[[a]<3>]<4>", "[[a]<3>]<2>"))
    with pytest.raises(DerivationError, match="V 2 replicates or projects"):
        derive(p, parse_transform("M ( V 2 ) V^-1 2"))


def test_nested_conjugation_prints_and_round_trips():
    p = parse_program("input s :: [a]<8>\nstage t = reshapeTo 2\nresult r = t s\n")
    d = derive(p, path_between(p.input_type, parse_type("[a]<2><2><2>")))
    text = print_program(d.derived)
    assert typecheck(parse_program(text)).result_type == typecheck(d.derived).result_type
    rep = verify(d, trials=10, seed=2)
    assert rep.failures == 0


def test_printed_stage_names_are_fresh_against_every_stage():
    p = parse_program(
        """\
input s :: [a]<8>
fn f :: [a]<2> -> [a]<2>
fn f = prim reverse
stage t = reshapeTo 2
stage t_1 = map f
result r = t |> t_1 s
"""
    )
    d = derive(p, parse_transform("R 2 M ( S )"))
    printed = parse_program(print_program(d.derived))
    rng = random.Random(4)
    for _ in range(5):
        v = random_value(d.derived.input_type, rng)
        assert eval_program(printed, v) == eval_program(d.derived, v)


def test_derived_program_round_trips_through_text():
    p = parse_program(CHUNKED_MAP_OPAQUE)
    d = derive(p, parse_transform("M ( S^-1 ) R^-1 3"))
    text = print_program(d.derived)
    assert parse_program(text) == d.derived
    assert "wrapelem f 3" in text


def test_printed_programs_parse_back_equal():
    rng = random.Random(19)
    programs = []
    for _ in range(120):
        n = rng.choice([8, 12, 16, 24])
        p = parse_program(random_program_text(rng, n))
        programs.append((p, path_between(p.input_type, random_type(rng, n, max_dims=3))))
    for _ in range(40):
        n = rng.choice([8, 12, 16])
        dims, target = random_factorization(rng, n, 3), random_factorization(rng, n, 3)
        p = parse_program(zip_swap_program(dims))
        pair = Pair(from_dims(Atom("a"), target), from_dims(Atom("b"), target))
        programs.append((p, path_between(p.input_type, pair)))
    for p, tr in programs:
        d = derive(p, tr)
        for q in (d.derived, d.boundary):
            assert parse_program(print_program(q)) == q


def pinned_cases() -> list:
    """Seeded pipelines, each with a transform towards a random target: 200
    random pipelines and 12 ``zipt |> map swap |> unzipt`` over pairs."""
    rng = random.Random(43)
    cases = []
    for _ in range(200):
        n = rng.choice([6, 8, 12, 16, 24])
        p = parse_program(random_program_text(rng, n))
        cases.append((p, path_between(p.input_type, random_type(rng, n, max_dims=3))))
    for i in range(12):
        n = rng.choice([8, 12])
        dims = random_factorization(rng, n, 3) if i % 3 == 0 else (n,)
        target = random_factorization(rng, n, 3)
        p = parse_program(zip_swap_program(dims))
        pair = Pair(from_dims(Atom("a"), target), from_dims(Atom("b"), target))
        cases.append((p, path_between(p.input_type, pair)))
    return cases


def test_derivations_are_pinned():
    # Any change to a derived or boundary program, a verdict, a stage record
    # or an error text changes the digest.
    digest = hashlib.sha256()
    for p, tr in pinned_cases():
        try:
            d = derive(p, tr)
        except DerivationError as e:
            digest.update(f"error: {e}\n".encode())
            continue
        for part in (print_program(d.derived), print_program(d.boundary)):
            digest.update(part.encode() + b"\n")
        digest.update(f"{d.verdict!r}\n{d.stage_records!r}\n".encode())
    assert digest.hexdigest() == "61d1e7ba281f664b9c8ba90720cf9b9ac23aac225a10dd7250416bf0780c1a10"


def test_verify_reports_are_pinned():
    # Any change to the trials verify passes or fails, or to its first
    # counterexample, changes the digest; no promised preservation loses a trial.
    digest = hashlib.sha256()
    for p, tr in pinned_cases():
        try:
            d = derive(p, tr)
        except DerivationError:
            continue
        for seed in (0, 5):
            rep = verify(d, trials=20, seed=seed)
            assert not rep.hard_failure
            cx = rep.first_counterexample or ()
            parts = [str(rep.passes), str(rep.failures)] + [print_value(v) for v in cx]
            digest.update(("|".join(parts) + "\n").encode())
    assert digest.hexdigest() == "c940950346de9cf99c0c02605cb20b3843c0614e05bf671889ebfeaffc324115"


def test_derivation_type_invariants():
    rng = random.Random(33)
    p = parse_program(CHUNKED_MAP)
    for _ in range(50):
        n = 12
        target = random_type(rng, n, max_dims=3)
        tr = path_between(p.input_type, target)
        try:
            d = derive(p, tr)
        except DerivationError:
            continue
        assert d.derived.input_type == apply_transform(tr, p.input_type)
        assert typecheck(d.derived).result_type == apply_transform(
            steps_to_transform(d.output_steps), typecheck(p).result_type
        )


# -- verification ------------------------------------------------------------------


def test_verify_map_increase_passes():
    d = derive(map_program(8), parse_transform("R 4 M ( S )"))
    rep = verify(d, trials=100, seed=42)
    assert rep.passes == 100
    assert rep.failures == 0
    assert not rep.hard_failure


def test_verify_map_decrease_unsatisfied_finds_counterexample():
    d = derive(parse_program(CHUNKED_MAP_OPAQUE), parse_transform("M ( S^-1 ) R^-1 3"))
    assert d.verdict == ConditionallyPreserved("f = map h", False)
    rep = verify(d, trials=100, seed=42)
    assert rep.failures > 0
    assert rep.first_counterexample is not None
    assert not rep.hard_failure  # failures are expected here


def test_verify_map_decrease_satisfied_passes():
    d = derive(parse_program(CHUNKED_MAP), parse_transform("M ( S^-1 ) R^-1 3"))
    assert d.verdict == ConditionallyPreserved("f = map h", True)
    rep = verify(d, trials=100, seed=42)
    assert rep.passes == 100


def test_verify_fold_decrease_satisfied_passes():
    d = derive(parse_program(CHUNKED_FOLD), parse_transform("M ( S^-1 ) R^-1 3"))
    assert d.verdict == ConditionallyPreserved("f = foldl h", True)
    rep = verify(d, trials=100, seed=42)
    assert rep.passes == 100


@pytest.mark.parametrize(
    "text, wrapped, condition",
    [(CHUNKED_MAP_OPAQUE, "f__we1", "f = map h"), (CHUNKED_FOLD_OPAQUE, "f__wf1", "f = foldl h")],
    ids=["map", "foldl"],
)
def test_flattening_one_wide_chunks_promises_preservation(text, wrapped, condition):
    # At width 1, wrapelem f 1 and wrapfold f 1 are exact for any f, even an
    # opaque reverse or add_head.
    p = parse_program(text.replace("[a]<3>", "[a]<1>").replace("<4>", "<6>"))
    assert p.input_type == parse_type("[[a]<1>]<6>")
    d = derive(p, parse_transform("M ( S^-1 ) R^-1 1"))
    assert d.derived.stages[0][1].fn == wrapped
    assert d.verdict == ConditionallyPreserved(condition, True)
    rep = verify(d, trials=100, seed=42)
    assert rep.passes == 100 and not rep.hard_failure


def test_verify_fold_increase_with_noncommutative_step():
    p = parse_program(FLAT_FOLD.replace("prim add", "prim dec_shift"))
    d = derive(p, parse_transform("R 2 M ( S )"))
    rep = verify(d, trials=100, seed=7)
    assert rep.passes == 100


def test_verify_fold_decrease_unsatisfied_finds_counterexample():
    d = derive(
        parse_program(CHUNKED_FOLD_OPAQUE), parse_transform("M ( S^-1 ) R^-1 3")
    )
    assert d.verdict == ConditionallyPreserved("f = foldl h", False)
    rep = verify(d, trials=100, seed=7)
    assert rep.failures > 0
    assert not rep.hard_failure


def test_verify_is_deterministic():
    d = derive(map_program(8), parse_transform("R 2 M ( S )"))
    assert verify(d, trials=50, seed=5) == verify(d, trials=50, seed=5)
