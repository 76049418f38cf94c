import random
import re
from dataclasses import replace
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


# Program texts for the error tables, one line per "; "-separated part.
IN = "input s :: [a]<4>; "
F = IN + "fn f :: a -> a; "
G = F + "stage g = map f; "


def lines(text):
    return text.replace("; ", "\n").strip() + "\n"


# Each ParseError that parse_program raises: the text, the error class and
# the full message.
PROGRAM_PARSE_ERRORS = [
    (IN + "input t :: [a]<4>; result r = s", ParseError, "duplicate input line at line 2"),
    ("input s [a]<4>; result r = s", ParseError, "input needs '<name> :: <type>' at line 1"),
    (
        "input s :: [a]<0>; result r = s",
        ParseError,
        "bad input type: size must be >= 1, got 0 at line 1, column 16",
    ),
    (IN + "fn f :: a", ParseError, "signature needs at least one -> at line 2"),
    (
        IN + "fn f :: a -> [a",
        ParseError,
        "bad type in signature: expected ']' at line 2, column 16",
    ),
    (F + "fn f :: a -> a", ParseError, "duplicate signature for f at line 3"),
    (IN + "fn f =", ParseError, "empty function definition at line 2"),
    (F + "fn f = prim add1; fn f = prim add1", ParseError, "duplicate definition for f at line 4"),
    (F + "fn f = lift add1", ParseError, "bad function definition 'lift add1' at line 3"),
    (F + "fn f = prim", ParseError, "bad function definition 'prim' at line 3"),
    (F + "fn f = prim add1 add2", ParseError, "bad function definition 'prim add1 add2' at line 3"),
    (F + "fn f = elementwise", ParseError, "bad function definition 'elementwise' at line 3"),
    (F + "fn f = foldof h h", ParseError, "bad function definition 'foldof h h' at line 3"),
    (F + "fn f = wrapelem h", ParseError, "bad function definition 'wrapelem h' at line 3"),
    (F + "fn f = wrapfold h 2 2", ParseError, "bad function definition 'wrapfold h 2 2' at line 3"),
    (F + "fn f = wrapelem h 0", ParseError, "wrapelem needs a size >= 1 at line 3"),
    (IN + "fn f", ParseError, "fn line needs '::' or '=' at line 2"),
    (IN + "stage g map f", ParseError, "stage line needs '=' at line 2"),
    (G + "stage g = map f", ParseError, "duplicate stage g at line 4"),
    (IN + "result r = s; result q = s", ParseError, "duplicate result line at line 3"),
    (IN + "result r s", ParseError, "result line needs '=' at line 2"),
    (IN + "output q = s", ParseError, "unknown directive 'output' at line 2"),
    ("fn f :: a -> a; result r = s", ParseError, "missing input line"),
    (
        IN + "fn f = prim add1; result r = s",
        ParseError,
        "function f has a definition but no signature",
    ),
    (
        F + "fn f = elementwise h; result r = s",
        ParseError,
        "function f refers to undeclared function h",
    ),
    (G, ParseError, "missing result line"),
    (G + "result r = g s t", ParseError, "result must end with '<stage> <input-name>' at line 4"),
    (G + "result r = g |> s", ParseError, "result must end with '<stage> <input-name>' at line 4"),
    (G + "result r = g t", ParseError, "result applies to 't' but the input is 's' at line 4"),
    (G + "result r = g |> h s", ParseError, "undeclared stage 'h' at line 4"),
    (G + "stage h = map f; result r = g s", ParseError, "stages never used in result: h"),
    (
        "input s :: [a]<8>; fn f :: a -> a; stage g = map f; stage x = reshapeTo 2; "
        "stage y = reshapeFrom 2; result r = g |> x |> y |> g s",
        ParseError,
        "stage 'g' used twice in result at line 6",
    ),
    (IN + "stage g =; result r = g s", ParseError, "empty stage definition at line 2"),
    (IN + "stage g = map f; result r = g s", ParseError, "undeclared function 'f' at line 2"),
    (
        F + "stage g = foldl f; result r = g s",
        ParseError,
        "foldl needs a function and an accumulator at line 3",
    ),
    (IN + "stage g = foldl f 0; result r = g s", ParseError, "undeclared function 'f' at line 2"),
    (
        F + "stage g = foldl f [0,; result r = g s",
        ParseError,
        "bad accumulator literal: expected a value at line 3, column 22",
    ),
    (
        IN + "stage z = zipt whatever; result r = z s",
        ParseError,
        "zipt takes no argument at line 2",
    ),
    (IN + "stage u = unzipt 3 4; result r = u s", ParseError, "unzipt takes no argument at line 2"),
    (IN + "stage g = scan f; result r = g s", ParseError, "unknown stage kind 'scan' at line 2"),
    (
        IN + "stage g = reshapeTo 0; result r = g s",
        ParseError,
        "reshapeTo needs a size >= 1 at line 2",
    ),
    (
        IN + "stage g = reshapeFrom x; result r = g s",
        ParseError,
        "reshapeFrom needs an integer at line 2",
    ),
]


@pytest.mark.parametrize("text, error, message", PROGRAM_PARSE_ERRORS)
def test_parse_program_error_texts(text, error, message):
    with pytest.raises(error) as info:
        parse_program(lines(text))
    assert str(info.value) == message
    # A nested type or literal error points at its column within the line.
    column = re.search(r"column (\d+)$", message)
    assert info.value.column == (column and int(column[1]))


# Each StageTypeError that typecheck raises: the text, the error class and
# the full message.
TYPECHECK_ERRORS = [
    (
        "input s :: a; fn f :: a -> a; stage g = map f; result r = g s",
        StageTypeError,
        "stage g: map needs a vector input, got a",
    ),
    (
        IN + "fn f :: a -> a -> a; stage g = map f; result r = g s",
        StageTypeError,
        "stage g: map function f must take one argument",
    ),
    (
        IN + "fn f :: b -> b; stage g = map f; result r = g s",
        StageTypeError,
        "stage g: map function f takes b but elements are a",
    ),
    (
        "input s :: a; fn f :: b -> a -> b; stage g = foldl f 0; result r = g s",
        StageTypeError,
        "stage g: foldl needs a vector input, got a",
    ),
    (
        IN + "fn f :: a -> a; stage g = foldl f 0; result r = g s",
        StageTypeError,
        "stage g: fold function f must take two arguments",
    ),
    (
        IN + "fn f :: b -> a -> a; stage g = foldl f 0; result r = g s",
        StageTypeError,
        "stage g: fold function f must return its accumulator type",
    ),
    (
        IN + "fn f :: b -> b -> b; stage g = foldl f 0; result r = g s",
        StageTypeError,
        "stage g: fold function f consumes b but elements are a",
    ),
    (
        IN + "fn f :: [b]<2> -> a -> [b]<2>; stage g = foldl f 0; result r = g s",
        StageTypeError,
        "stage g: accumulator 0 does not conform to [b]<2>",
    ),
    (
        IN + "stage z = zipt; result r = z s",
        StageTypeError,
        "stage z: zipt needs a pair of vectors, got [a]<4>",
    ),
    (
        "input s :: (a,[b]<4>); stage z = zipt; result r = z s",
        StageTypeError,
        "stage z: zipt needs a pair of vectors, got (a,[b]<4>)",
    ),
    (
        "input s :: ([a]<4>,[b]<3>); stage z = zipt; result r = z s",
        StageTypeError,
        "stage z: zipt needs equal lengths, got 4 and 3",
    ),
    (
        IN + "stage u = unzipt; result r = u s",
        StageTypeError,
        "stage u: unzipt needs a vector of pairs, got [a]<4>",
    ),
    (
        "input s :: ([a]<4>,[b]<4>); stage u = unzipt; result r = u s",
        StageTypeError,
        "stage u: unzipt needs a vector of pairs, got ([a]<4>,[b]<4>)",
    ),
    (
        IN + "stage t = reshapeTo 3; result r = t s",
        StageTypeError,
        "stage t: reshapeTo 3: op R 3 at position 0: R 3: outer size 4 is not a multiple of 3",
    ),
    (
        IN + "fn f :: a -> a -> a; fn f = prim add1; result r = s",
        StageTypeError,
        "fn f: primitive add1 takes 1 arguments but the signature has 2",
    ),
    (
        "input s :: [[a]<2>]<3>; fn f :: [a]<2> -> [a]<2>; fn f = prim add1; stage g = map f; "
        "result r = g s",
        StageTypeError,
        "fn f: primitive add1 needs an atom, got [a]<2>",
    ),
    (
        "input s :: [[a]<2>]<3>; fn f :: b -> [a]<2> -> b; fn f = prim add; "
        "stage g = foldl f 0; result r = g s",
        StageTypeError,
        "fn f: primitive add needs an atom, got [a]<2>",
    ),
    (
        "input s :: [([a]<2>,[b]<3>)]<4>; fn f :: ([a]<2>,[b]<3>) -> [(a,b)]<2>; "
        "fn f = prim zipt; stage g = map f; result r = g s",
        StageTypeError,
        "fn f: primitive zipt needs equal lengths, got 2 and 3",
    ),
    (
        IN + "fn f :: ([a]<2>,b) -> ([a]<2>,b); fn f = prim swap; result r = s",
        StageTypeError,
        "fn f: primitive swap returns (b,[a]<2>) but the signature has ([a]<2>,b)",
    ),
    (
        IN + "fn h :: a -> a; fn f :: [a]<2> -> [a]<3>; fn f = elementwise h; result r = s",
        StageTypeError,
        "fn f: elementwise h needs signature [a]<k> -> [a]<k>",
    ),
    (
        IN + "fn h :: b -> a -> b; fn f :: b -> [a]<2> -> a; fn f = foldof h; result r = s",
        StageTypeError,
        "fn f: foldof h needs signature b -> [a]<k> -> b",
    ),
    (
        IN + "fn h :: [a]<2> -> [a]<2>; fn f :: a -> b; fn f = wrapelem h 2; result r = s",
        StageTypeError,
        "fn f: wrapelem signature mismatch",
    ),
    (
        IN + "fn h :: b -> [a]<3> -> b; fn f :: b -> a -> b; fn f = wrapfold h 2; result r = s",
        StageTypeError,
        "fn f: wrapfold signature mismatch",
    ),
]


@pytest.mark.parametrize("text, error, message", TYPECHECK_ERRORS)
def test_typecheck_error_texts(text, error, message):
    with pytest.raises(error) as info:
        typecheck(parse_program(lines(text)))
    assert str(info.value) == message


def test_typecheck_names_a_definition_over_an_unknown_function():
    """``parse_program`` rejects such a table first, so build one directly."""
    p = parse_program(lines(F + "fn h :: a -> a; fn f = elementwise h; result r = s"))
    with pytest.raises(StageTypeError) as info:
        typecheck(replace(p, fns={"f": p.fns["f"]}))
    assert str(info.value) == "fn f: unknown function h"


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
