import pytest

from vectx.errors import ParseError, StageTypeError
from vectx.program_ir import (
    ElementwiseDef,
    FoldStage,
    MapStage,
    PrimDef,
    ZiptStage,
    parse_program,
    print_program,
    typecheck,
)
from vectx.runtime import eval_program, iv, vv
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


@pytest.mark.parametrize("kind", ["wrapelem", "wrapfold"])
def test_wrapper_size_must_be_an_integer(kind):
    text = MAP_PROGRAM.replace("fn f = prim add1", f"fn f = {kind} g x")
    with pytest.raises(ParseError, match="at line 3"):
        parse_program(text)


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
    assert eval_program(p, vv(iv(1), iv(2), iv(3))) == vv(iv(1), iv(2), iv(3))


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
    assert eval_program(p, vv(iv(1), iv(2), iv(3))) == vv(iv(2), iv(3), iv(4))


def test_eval_foldl_is_left_associative():
    text = """\
input s :: [a]<4>
fn f :: b -> a -> b
fn f = prim dec_shift
stage g = foldl f 0
result r = g s
"""
    p = parse_program(text)
    assert eval_program(p, vv(iv(1), iv(2), iv(3), iv(4))) == iv(1234)


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
    data = [iv(n) for n in range(1, 13)]
    chunked = vv(*[vv(*data[i : i + 3]) for i in range(0, 12, 3)])
    assert eval_program(nested, chunked) == eval_program(flat, vv(*data)) == iv(78)


def test_eval_two_stage():
    p = parse_program(TWO_STAGE)
    v = vv(*[iv(n) for n in range(1, 9)])
    assert eval_program(p, v) == iv(3 * sum(range(1, 9)))
