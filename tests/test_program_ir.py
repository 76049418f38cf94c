import random
from functools import reduce

import pytest

from vectx.errors import MissingPrimitiveError, ParseError, ShapeError, StageTypeError
from vectx.program_ir import (
    MapStage,
    PrimDef,
    parse_program,
    print_program,
    typecheck,
)
from vectx.runtime import VecVal, eval_program, vv
from vectx.type_algebra import parse_type

MAP_PROGRAM = """\
input s :: [a]<16>
fn f :: a -> a
fn f = prim add1
stage g = map f
result r = g s
"""

FOLD_NESTED = """\
input s :: [[a]<3>]<4>
fn f :: b -> [a]<3> -> b
fn f = foldof h
fn h :: b -> a -> b
fn h = prim add
stage g = foldl f 0
result r = g s
"""

TWO_STAGE = """\
input s :: [a]<8>
fn f :: a -> a
fn f = prim mul3
fn g :: b -> a -> b
fn g = prim add
stage m = map f
stage t = foldl g 0
result r = m |> t s
"""

ZIP_PROGRAM = """\
input s :: ([a]<4>,[b]<4>)
stage z = zipt
result r = z s
"""


def test_parse_map_program():
    p = parse_program(MAP_PROGRAM)
    assert p.input_type == parse_type("[a]<16>")
    assert p.stages == (("g", MapStage("f")),)
    assert p.fns["f"].defn == PrimDef("add1")


def test_typecheck_map_result_type():
    p = parse_program(MAP_PROGRAM)
    tp = typecheck(p)
    assert tp.result_type == parse_type("[a]<16>")
    assert tp.stage_types == ((parse_type("[a]<16>"), parse_type("[a]<16>")),)


def test_typecheck_fold_result_type():
    tp = typecheck(parse_program(FOLD_NESTED))
    assert tp.result_type == parse_type("b")


def test_typecheck_two_stage():
    tp = typecheck(parse_program(TWO_STAGE))
    assert tp.result_type == parse_type("b")
    assert tp.stage_types[0] == (parse_type("[a]<8>"), parse_type("[a]<8>"))


def test_map_on_atom_is_type_error():
    text = MAP_PROGRAM.replace("input s :: [a]<16>", "input s :: b")
    with pytest.raises(StageTypeError):
        typecheck(parse_program(text))


def test_map_element_mismatch_is_type_error():
    text = MAP_PROGRAM.replace("input s :: [a]<16>", "input s :: [[a]<2>]<8>")
    with pytest.raises(StageTypeError, match="stage g"):
        typecheck(parse_program(text))


def test_zipt_typing():
    tp = typecheck(parse_program(ZIP_PROGRAM))
    assert tp.result_type == parse_type("[(a,b)]<4>")


def test_bad_accumulator_is_type_error():
    text = FOLD_NESTED.replace("foldl f 0", "foldl f [0,0]")
    with pytest.raises(StageTypeError, match="accumulator"):
        typecheck(parse_program(text))


def test_elementwise_signature_checked():
    text = """\
input s :: [[a]<3>]<4>
fn h :: a -> a
fn h = prim add1
fn f :: [a]<2> -> [a]<2>
fn f = elementwise h
stage g = map f
result r = g s
"""
    # signature is consistent with h, so the error is the stage mismatch
    with pytest.raises(StageTypeError, match="stage g"):
        typecheck(parse_program(text))
    bad = text.replace("fn f :: [a]<2> -> [a]<2>", "fn f :: [a]<2> -> [a]<3>")
    with pytest.raises(StageTypeError, match="elementwise"):
        typecheck(parse_program(bad))


@pytest.mark.parametrize(
    "h_sig, f_sig, defn",
    [
        ("b -> a -> b", "[a]<2> -> [a]<2>", "elementwise h"),
        ("a -> a", "b -> [a]<2> -> b", "foldof h"),
        ("b -> [a]<2> -> b", "a -> a", "wrapelem h 2"),
        ("[a]<2> -> [a]<2>", "b -> a -> b", "wrapfold h 2"),
    ],
)
def test_definition_over_a_function_of_the_wrong_arity_is_type_error(h_sig, f_sig, defn):
    text = f"input s :: [a]<4>\nfn h :: {h_sig}\nfn f :: {f_sig}\nfn f = {defn}\nresult r = s\n"
    with pytest.raises(StageTypeError, match=f"fn f: {defn.split()[0]}"):
        typecheck(parse_program(text))


@pytest.mark.parametrize("kind", ["wrapelem", "wrapfold"])
def test_wrapper_size_must_be_an_integer(kind):
    text = MAP_PROGRAM.replace("fn f = prim add1", f"fn f = {kind} g x")
    with pytest.raises(ParseError, match="at line 3"):
        parse_program(text)


@pytest.mark.parametrize(
    "line, message",
    [
        ("fn f = wrapelem g 1_0", "wrapelem needs an integer at line 3"),
        ("fn f = wrapfold g +2", "wrapfold needs an integer at line 3"),
        ("stage g = reshapeTo +1_0", "reshapeTo needs an integer at line 4"),
        ("stage g = reshapeFrom 1_0", "reshapeFrom needs an integer at line 4"),
    ],
)
def test_sizes_are_runs_of_decimal_digits(line, message):
    """A size reads as in a type's ``<size>``, so a program prints back as
    it was written."""
    old = "fn f = prim add1" if line.startswith("fn") else "stage g = map f"
    with pytest.raises(ParseError) as info:
        parse_program(MAP_PROGRAM.replace(old, line))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "input_type, stages",
    [
        ("[a]<4>", "reshapeTo 3"),
        ("[a]<4>", "reshapeFrom 2"),
        ("[[a]<3>]<2>", "reshapeFrom 2"),
        ("([a]<2>,[b]<3>)", "reshapeTo 3"),
        ("a", "reshapeTo 1"),
        ("(a,[b]<2>)", "reshapeFrom 1"),
    ],
)
def test_reshape_stage_typing_errors(input_type, stages):
    text = f"input s :: {input_type}\nstage t = {stages}\nresult r = t s\n"
    with pytest.raises(StageTypeError, match="stage t"):
        typecheck(parse_program(text))


def test_undeclared_function_is_parse_error():
    with pytest.raises(ParseError):
        parse_program(MAP_PROGRAM.replace("stage g = map f", "stage g = map nope"))


def test_undeclared_stage_is_parse_error():
    with pytest.raises(ParseError):
        parse_program(MAP_PROGRAM.replace("result r = g s", "result r = h s"))


def test_missing_input_is_parse_error():
    with pytest.raises(ParseError):
        parse_program("fn f :: a -> a\nfn f = prim add1\n")


def test_empty_pipeline_is_identity():
    p = parse_program("input s :: [a]<3>\nresult r = s\n")
    assert typecheck(p).result_type == parse_type("[a]<3>")
    assert eval_program(p, vv(1, 2, 3)) == vv(1, 2, 3)


def test_print_parse_round_trip():
    for text in (MAP_PROGRAM, FOLD_NESTED, TWO_STAGE, ZIP_PROGRAM):
        p = parse_program(text)
        assert parse_program(print_program(p)) == p
        assert print_program(parse_program(print_program(p))) == print_program(p)


def test_comments_and_blank_lines_ignored():
    text = "# pipeline\n\n" + MAP_PROGRAM.replace(
        "stage g = map f", "stage g = map f  # the only stage"
    )
    assert parse_program(text) == parse_program(MAP_PROGRAM)


# -- evaluation ---------------------------------------------------------------


def test_eval_map():
    p = parse_program(MAP_PROGRAM.replace("<16>", "<3>"))
    assert eval_program(p, vv(1, 2, 3)) == vv(2, 3, 4)


def test_eval_foldl_is_left_associative():
    text = """\
input s :: [a]<4>
fn f :: b -> a -> b
fn f = prim dec_shift
stage g = foldl f 0
result r = g s
"""
    p = parse_program(text)
    assert eval_program(p, vv(1, 2, 3, 4)) == 1234


def test_eval_nested_fold_matches_flat_fold():
    nested = parse_program(FOLD_NESTED)
    flat = parse_program(
        """\
input s :: [a]<12>
fn h :: b -> a -> b
fn h = prim add
stage g = foldl h 0
result r = g s
"""
    )
    data = list(range(1, 13))
    chunked = vv(*[vv(*data[i : i + 3]) for i in range(0, 12, 3)])
    assert eval_program(nested, chunked) == eval_program(flat, vv(*data)) == 78


def test_eval_two_stage():
    p = parse_program(TWO_STAGE)
    v = vv(*range(1, 9))
    assert eval_program(p, v) == 3 * sum(range(1, 9))


# -- evaluator behaviour --------------------------------------------------------

MAP_F_123 = """\
input s :: [a]<3>
fn f :: a -> a
{body}
stage g = map f
result r = g s
"""


@pytest.mark.parametrize(
    "body, error, message",
    [
        ("", MissingPrimitiveError, "function f has no executable body"),
        ("fn f = prim nosuch", MissingPrimitiveError, "unknown primitive 'nosuch'"),
        ("fn f = prim add", ShapeError, "primitive add takes 2 arguments, got 1"),
        ("fn f = prim sum", ShapeError, "primitive expected a vector argument"),
    ],
)
def test_eval_errors_keep_their_class_and_message(body, error, message):
    p = parse_program(MAP_F_123.format(body=body))
    with pytest.raises(error) as info:
        eval_program(p, vv(1, 2, 3))
    assert str(info.value) == message


def test_unchecked_map_of_a_scalar_primitive_over_vectors_is_shape_error():
    p = parse_program(
        "input s :: [[a]<1>]<2>\nfn f :: a -> a\nfn f = prim add1\nstage g = map f\nresult r = g s\n"
    )
    with pytest.raises(ShapeError) as info:
        eval_program(p, vv(vv(1), vv(2)))
    assert str(info.value) == "primitive expected a scalar argument"


def test_eval_wrapelem_and_wrapfold():
    wrapelem = """\
input s :: [a]<3>
fn h0 :: a -> a
fn h0 = prim mul3
fn h :: [a]<3> -> [a]<3>
fn h = elementwise h0
fn f :: a -> a
fn f = wrapelem h 3
stage g = map f
result r = g s
"""
    assert eval_program(parse_program(wrapelem), vv(1, 2, 3)) == vv(3, 6, 9)
    wrapfold = """\
input s :: [a]<3>
fn h0 :: b -> a -> b
fn h0 = prim dec_shift
fn h :: b -> [a]<2> -> b
fn h = foldof h0
fn f :: b -> a -> b
fn f = wrapfold h 2
stage g = foldl f 0
result r = g s
"""
    assert eval_program(parse_program(wrapfold), vv(1, 2, 3)) == 112233


def test_eval_stages_and_wrappers_sharing_one_function():
    text = """\
input s :: [a]<4>
fn f :: a -> a
fn f = prim add1
fn e :: [a]<2> -> [a]<2>
fn e = elementwise f
stage g = map f
stage h = map f
stage t = reshapeTo 2
stage k = map e
result r = g |> h |> t |> k s
"""
    p = parse_program(text)
    expected = vv(vv(4, 5), vv(6, 7))
    assert eval_program(p, vv(1, 2, 3, 4)) == expected


# Expectations for the differential test, worked out from the flat input
# integers alone: reshape stages keep the leaf order, a map acts leaf by leaf,
# and a final fold is a left fold of its scalar step.
SCALAR_PRIMS = {"add1": lambda x: x + 1, "mul3": lambda x: 3 * x, "negate": lambda x: -x}
FOLD_PRIMS = {"add": lambda a, x: a + x, "max": max, "dec_shift": lambda a, x: 10 * a + x}


def _dims_text(dims):
    return "[a]" + "".join(f"<{d}>" for d in dims) if dims else "a"


def _nested(flat, dims):
    """The value of innermost-first ``dims`` holding ``flat`` in order."""
    level = list(flat)
    for d in dims:
        level = [VecVal(tuple(level[i : i + d])) for i in range(0, len(level), d)]
    return level[0]


def _divisors(n):
    return [k for k in range(2, n) if n % k == 0]


def _random_pipeline(rng):
    """A program text over ``[a]<dims>``, its input dims, and the function
    of the flat input integers that gives its expected result."""
    n = rng.choice([12, 16, 24, 36, 48])
    dims = [n]
    while rng.random() < 0.5 and _divisors(dims[-1]):
        k = rng.choice(_divisors(dims[-1]))
        dims[-1:] = [k, dims[-1] // k]
    in_dims = tuple(dims)
    lines = [f"input s :: {_dims_text(in_dims)}"]
    names, ops = [], []
    for i in range(rng.randint(1, 5)):
        kinds = ["map"]
        if _divisors(dims[-1]):
            kinds.append("reshapeTo")
        if len(dims) > 1:
            kinds.append("reshapeFrom")
        kind = rng.choice(kinds)
        if kind == "map":
            prim = rng.choice(sorted(SCALAR_PRIMS))
            lines += [f"fn m{i}_0 :: a -> a", f"fn m{i}_0 = prim {prim}"]
            for j in range(1, len(dims)):
                t = _dims_text(dims[:j])
                lines += [f"fn m{i}_{j} :: {t} -> {t}", f"fn m{i}_{j} = elementwise m{i}_{j - 1}"]
            lines.append(f"stage s{i} = map m{i}_{len(dims) - 1}")
            ops.append(SCALAR_PRIMS[prim])
        elif kind == "reshapeTo":
            k = rng.choice(_divisors(dims[-1]))
            lines.append(f"stage s{i} = reshapeTo {k}")
            dims[-1:] = [k, dims[-1] // k]
        else:
            lines.append(f"stage s{i} = reshapeFrom {dims[-2]}")
            dims[-2:] = [dims[-2] * dims[-1]]
        names.append(f"s{i}")
    out_dims = tuple(dims)
    fold = None
    if rng.random() < 0.5:
        prim = rng.choice(sorted(FOLD_PRIMS))
        lines += ["fn g_0 :: a -> a -> a", f"fn g_0 = prim {prim}"]
        for j in range(1, len(dims)):
            lines += [f"fn g_{j} :: a -> {_dims_text(dims[:j])} -> a", f"fn g_{j} = foldof g_{j - 1}"]
        lines.append(f"stage f = foldl g_{len(dims) - 1} 0")
        names.append("f")
        fold = FOLD_PRIMS[prim]
    lines.append(f"result r = {' |> '.join(names)} s")

    def expected(flat):
        for op in ops:
            flat = [op(x) for x in flat]
        return reduce(fold, flat, 0) if fold else _nested(flat, out_dims)

    return "\n".join(lines) + "\n", in_dims, expected


def test_eval_matches_leaf_order_expectations_on_random_pipelines():
    rng = random.Random(20151505)
    for _ in range(200):
        text, in_dims, expected = _random_pipeline(rng)
        p = parse_program(text)
        typecheck(p)
        flat = [rng.randint(-99, 99) for _ in range(reduce(lambda a, d: a * d, in_dims, 1))]
        assert eval_program(p, _nested(flat, in_dims)) == expected(flat), text
