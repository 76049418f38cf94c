import random
from functools import reduce

import pytest

from gen import flatten, random_applicable_transform, random_type, shape_of
from vectx.errors import (
    DivisibilityError,
    LengthMismatchError,
    MissingPrimitiveError,
    ParseError,
    ShapeError,
    VectxError,
)
from vectx import runtime
from vectx.program_ir import (
    ElementwiseDef,
    FnSig,
    FoldOfDef,
    FoldStage,
    MapStage,
    OpaqueFn,
    PrimDef,
    Program,
    parse_program,
    typecheck,
)
from vectx.runtime import (
    PRIMITIVES,
    TupVal,
    VecVal,
    apply_transform_value,
    compile_program,
    conforms,
    eval_program,
    from_vector,
    parse_value,
    print_value,
    random_value,
    reshape_from,
    reshape_to,
    to_vector,
    unzipt,
    vv,
    zipt,
)
from vectx.type_algebra import (
    MAX_LEAVES,
    Atom,
    Pair,
    Vec,
    apply_transform,
    dims_of,
    from_dims,
    parse_transform,
    parse_type,
)


def ints(*ns):
    return vv(*ns)


# -- shape_of / conforms -----------------------------------------------------


def test_shape_of_nested():
    v = vv(ints(1, 2), ints(3, 4), ints(5, 6))
    assert shape_of(v) == Vec(3, Vec(2, Atom("int")))


def test_shape_of_ragged_fails():
    with pytest.raises(ShapeError):
        shape_of(vv(ints(1, 2), ints(3)))


def test_conforms_ignores_atom_names():
    assert conforms(ints(1, 2, 3), Vec(3, Atom("a")))
    assert not conforms(ints(1, 2, 3), Vec(4, Atom("a")))
    assert conforms(TupVal(1, 2), Pair(Atom("a"), Atom("b")))


@pytest.mark.parametrize("leaf", [1.5, True], ids=["float", "bool"])
def test_a_non_integer_leaf_does_not_conform(leaf):
    assert not conforms(vv(leaf, 2), parse_type("[a]<2>"))
    p = parse_program("input s :: [a]<2>\nresult r = s\n")
    with pytest.raises(ShapeError, match="input value does not conform"):
        eval_program(p, vv(leaf, 2))


@pytest.mark.parametrize(
    "text",
    [
        "[[[1,2],[3,4]],[[5,6]]]",  # a ragged vector at depth 2
        "[[[1,2],(3,4)],[[5,6],[7,8]]]",  # a pair where depth 3 needs a vector
        "[[[1,2],[3,4]],[[5,6],[7,8,9]]]",  # a wrong innermost size
    ],
)
def test_a_deep_mismatch_does_not_conform(text):
    assert not conforms(parse_value(text), parse_type("[[[a]<2>]<2>]<2>"))


def test_a_deep_bool_leaf_does_not_conform():
    v = vv(vv(ints(1, 2), ints(3, 4)), vv(ints(5, 6), ints(7, True)))
    assert conforms(parse_value("[[[1,2],[3,4]],[[5,6],[7,8]]]"), parse_type("[[[a]<2>]<2>]<2>"))
    assert not conforms(v, parse_type("[[[a]<2>]<2>]<2>"))


def test_a_vector_of_pairs_of_vectors_conforms():
    v = parse_value("[([1,2],[3,4]),([5,6],[7,8]),([9,10],[11,12])]")
    assert conforms(v, parse_type("[([a]<2>,[b]<2>)]<3>"))
    assert not conforms(v, parse_type("[([a]<2>,[b]<3>)]<3>"))


def test_scalars_are_plain_ints():
    p = parse_program("input s :: [a]<2>\nfn f :: a -> a\nfn f = prim add1\nstage g = map f\nresult r = g s\n")
    for v in (parse_value("[1,-2]"), eval_program(p, parse_value("[1,-2]"))):
        assert [type(x) for x in v.items] == [int, int]


# -- reshape -----------------------------------------------------------------


def test_reshape_to_chunks_in_order():
    assert reshape_to(2, ints(1, 2, 3, 4, 5, 6)) == vv(
        ints(1, 2), ints(3, 4), ints(5, 6)
    )


def test_reshape_from_concatenates():
    assert reshape_from(2, vv(ints(1, 2), ints(3, 4))) == ints(1, 2, 3, 4)


def test_reshape_to_divisibility():
    with pytest.raises(DivisibilityError):
        reshape_to(4, ints(1, 2, 3))


def test_reshape_needs_a_vector():
    for reshape in (reshape_to, reshape_from):
        with pytest.raises(ShapeError, match="needs a vector"):
            reshape(1, 3)
        with pytest.raises(ShapeError, match="needs a vector"):
            reshape(1, TupVal(ints(1), 2))


def test_random_value_draws_are_pinned():
    # seeded verify counterexamples depend on these exact draws
    v = random_value(parse_type("([a]<3><2>,[b]<2>)"), random.Random(7))
    assert print_value(v) == "([[-17,-61,2],[67,-87,-81]],[38,-75])"


def test_random_value_refuses_more_than_max_leaves_before_drawing():
    rng = random.Random(3)
    state = rng.getstate()
    half = MAX_LEAVES // 2  # both parts of a pair count
    for text in ("[a]<65536><65536>", f"([a]<{half}>,[b]<{half + 1}>)"):
        with pytest.raises(ShapeError, match=f"MAX_LEAVES = {MAX_LEAVES}"):
            random_value(parse_type(text), rng)
    assert rng.getstate() == state


def test_reshape_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(1, 12) * 4
        v = random_value(Vec(n, Atom("a")), rng)
        assert reshape_from(4, reshape_to(4, v)) == v


def test_reshape_from_rejects_ragged():
    with pytest.raises(ShapeError):
        reshape_from(2, vv(ints(1, 2), ints(3)))


# -- to/from vector ----------------------------------------------------------


def test_to_vector_replicates():
    assert to_vector(3, 7) == ints(7, 7, 7)


def test_from_vector_takes_head():
    assert from_vector(ints(7, 8, 9)) == 7


def test_vector_round_trip():
    assert from_vector(to_vector(4, 5)) == 5


def test_from_vector_empty_fails():
    with pytest.raises(ShapeError):
        from_vector(vv())


# -- zipt / unzipt -----------------------------------------------------------


def test_zipt_pairs_elementwise():
    assert zipt(TupVal(ints(1, 2), ints(3, 4))) == vv(
        TupVal(1, 3), TupVal(2, 4)
    )


def test_unzipt_inverts_zipt():
    t = TupVal(ints(1, 2), ints(3, 4))
    assert unzipt(zipt(t)) == t


def test_zipt_length_mismatch():
    with pytest.raises(LengthMismatchError):
        zipt(TupVal(ints(1, 2), ints(3)))


def test_nested_zipt_composition():
    # map zipt . zipt over a pair of chunked vectors
    xs = vv(ints(1, 2), ints(3, 4))
    ys = vv(ints(5, 6), ints(7, 8))
    outer = zipt(TupVal(xs, ys))
    nested = VecVal(tuple(zipt(item) for item in outer.items))
    assert nested == vv(
        vv(TupVal(1, 5), TupVal(2, 6)),
        vv(TupVal(3, 7), TupVal(4, 8)),
    )


# -- transform mirror --------------------------------------------------------


def test_flattening_transform_on_values():
    tr = parse_transform("M ( S^-1 ) R^-1 2")
    v = vv(ints(1, 2), ints(3, 4), ints(5, 6))
    assert apply_transform_value(tr, v) == ints(1, 2, 3, 4, 5, 6)


def test_identity_transform_on_values():
    v = vv(ints(1, 2), ints(3, 4))
    assert apply_transform_value(parse_transform("I"), v) == v


def test_transform_value_tracks_type_and_preserves_order():
    rng = random.Random(17)
    for _ in range(200):
        t = random_type(rng, rng.randint(1, 48), atom="int")
        tr = random_applicable_transform(rng, t, allow_wrap=False)
        v = random_value(t, rng)
        out = apply_transform_value(tr, v)
        assert shape_of(out) == apply_transform(tr, t)
        assert flatten(out) == flatten(v)


def test_transform_value_treats_nested_pair_as_leaf():
    v = vv(*[TupVal(i, 10 + i) for i in range(4)])
    assert apply_transform_value(parse_transform("R 2 M ( S )"), v) == vv(
        vv(TupVal(0, 10), TupVal(1, 11)),
        vv(TupVal(2, 12), TupVal(3, 13)),
    )


def test_transform_value_tracks_type_on_vectors_of_pairs():
    rng = random.Random(19)
    pair = Pair(Atom("int"), Atom("int"))
    for _ in range(200):
        t = from_dims(pair, dims_of(random_type(rng, rng.randint(1, 48))))
        tr = random_applicable_transform(rng, t, allow_wrap=False)
        v = random_value(t, rng)
        out = apply_transform_value(tr, v)
        assert shape_of(out) == apply_transform(tr, shape_of(v))
        assert flatten(out) == flatten(v)


def test_transform_value_rejects_wrap():
    v = vv(ints(1, 2, 3), ints(4, 5, 6))
    for text in ("M ( V 2 ) V^-1 2", "V 1", "M ( M ( V^-1 1 ) )"):
        with pytest.raises(ShapeError, match="replicates or projects"):
            apply_transform_value(parse_transform(text), v)


def test_transform_value_rejects_ragged():
    with pytest.raises(ShapeError):
        apply_transform_value(parse_transform("R 2 R^-1 3"), vv(ints(1, 2, 3), ints(4, 5)))


def test_flatten_fully():
    assert flatten(vv(vv(ints(1, 2)), vv(ints(3, 4)))) == ints(1, 2, 3, 4)
    assert flatten(9) == ints(9)


# -- fold lemma as executable property ----------------------------------------


def _foldl(f, acc, items):
    for x in items:
        acc = f(acc, x)
    return acc


@pytest.mark.parametrize("prim", ["add", "max", "dec_shift"])
def test_nested_fold_equals_flat_fold(prim):
    _, f = PRIMITIVES[prim]
    rng = random.Random(29)
    for _ in range(100):
        m, k = rng.randint(1, 6), rng.randint(1, 6)
        nested = random_value(Vec(m, Vec(k, Atom("int"))), rng)
        flat = flatten(nested)
        nested_result = _foldl(
            lambda acc, chunk: _foldl(f, acc, chunk.items), 0, nested.items
        )
        assert nested_result == _foldl(f, 0, flat.items)


# -- literals ------------------------------------------------------------------


def test_print_parse_values():
    v = vv(TupVal(-1, 2), TupVal(3, 4))
    assert parse_value(print_value(v)) == v
    assert print_value(v) == "[(-1,2),(3,4)]"


def test_parse_value_rejects_garbage():
    with pytest.raises(ParseError):
        parse_value("[1,]x")
    with pytest.raises(ParseError):
        parse_value("(1)")


@pytest.mark.parametrize("text, column", [("[1,2,]", 6), ("[[1],[2],]", 10), ("[ 1 , ]", 7)])
def test_parse_value_rejects_a_trailing_comma(text, column):
    with pytest.raises(ParseError) as info:
        parse_value(text)
    assert info.value.column == column
    assert text[column - 1] == "]"


def test_parse_value_rejects_digits_int_cannot_read():
    with pytest.raises(ParseError) as info:
        parse_value("[²]")
    assert str(info.value) == "unexpected character '²' in value at column 2"


def test_parse_value_reads_an_empty_vector():
    assert parse_value("[]") == VecVal(())
    assert parse_value("[ [], [] ]") == vv(VecVal(()), VecVal(()))


@pytest.mark.parametrize(
    "nested",
    [lambda d: "[" * d + "1" + "]" * d, lambda d: "(1," * d + "1" + ")" * d],
    ids=["vector", "pair"],
)
def test_parse_value_rejects_deep_nesting(nested):
    with pytest.raises(ParseError, match="nesting"):
        parse_value(nested(3000))
    assert print_value(parse_value(nested(50))) == nested(50)


def test_integers_past_the_conversion_limit_are_typed_errors():
    with pytest.raises(ParseError, match="at column 2") as info:
        parse_value("[" + "1" * 5000 + "]")
    assert isinstance(info.value, VectxError)
    with pytest.raises(ShapeError, match="4300 digits"):
        print_value(vv(10**5000))


# -- compiled programs -----------------------------------------------------------


def test_compiled_program_runs_many_inputs_and_fails_only_when_reached():
    text = """\
input s :: [a]<4>
fn f :: a -> a
fn f = prim add1
fn e :: [a]<2> -> [a]<2>
fn e = elementwise f
fn u :: a -> a
stage g = map f
stage t = reshapeTo 2
stage k = map e
result r = g |> t |> k s
"""
    run = compile_program(parse_program(text))
    assert run(ints(1, 2, 3, 4)) == vv(ints(3, 4), ints(5, 6))
    assert run(ints(0, 0, 0, 0)) == vv(ints(2, 2), ints(2, 2))
    with pytest.raises(ShapeError, match="does not conform"):
        run(ints(1, 2, 3))
    missing = compile_program(parse_program(text.replace("stage g = map f", "stage g = map u")))
    with pytest.raises(MissingPrimitiveError, match="function u has no executable body"):
        missing(ints(1, 2, 3, 4))


@pytest.mark.parametrize(
    "defn, stage, arity, nargs", [("elementwise h", "foldl f 0", 1, 2), ("foldof h", "map f", 2, 1)]
)
def test_wrapper_called_with_the_wrong_arity_is_shape_error(defn, stage, arity, nargs):
    text = f"""\
input s :: [a]<3>
fn h :: a -> a
fn h = prim add1
fn f :: a -> a -> a
fn f = {defn}
stage g = {stage}
result r = g s
"""
    with pytest.raises(ShapeError, match=f"^function f takes {arity} arguments, got {nargs}$"):
        eval_program(parse_program(text), ints(1, 2, 3))


def test_self_referencing_function_compiles_and_fails_when_run():
    text = """\
input s :: [[a]<1>]<2>
fn f :: [a]<1> -> [a]<1>
fn f = elementwise f
stage g = map f
result r = g s
"""
    run = compile_program(parse_program(text))
    with pytest.raises(ShapeError, match="primitive expected a vector argument"):
        run(vv(ints(1), ints(2)))


# A map over a function nested two levels deep in ``elementwise``, and folds
# over ``foldof`` chains: the base function runs on the nodes three vector
# levels down, in leaf order.
NESTED_MAP = """\
input s :: {input}
fn h :: {h_sig}
{h_body}
fn e1 :: [{h_arg}]<{k1}> -> [{h_ret}]<{k1}>
fn e1 = elementwise h
fn e2 :: [[{h_arg}]<{k1}>]<{k2}> -> [[{h_ret}]<{k1}>]<{k2}>
fn e2 = elementwise e1
stage g = map e2
result r = g s
"""


def test_map_over_a_nested_chain_without_a_body_fails_only_when_run():
    text = NESTED_MAP.format(
        input="[[[a]<2>]<2>]<2>", h_sig="a -> a", h_body="", h_arg="a", h_ret="a", k1=2, k2=2
    )
    run = compile_program(parse_program(text))
    with pytest.raises(MissingPrimitiveError) as info:
        run(parse_value("[[[1,2],[3,4]],[[5,6],[7,8]]]"))
    assert str(info.value) == "function h has no executable body"


def test_map_over_a_nested_reverse_chain():
    text = NESTED_MAP.format(
        input="[[[[a]<3>]<2>]<1>]<2>",
        h_sig="[a]<3> -> [a]<3>",
        h_body="fn h = prim reverse",
        h_arg="[a]<3>",
        h_ret="[a]<3>",
        k1=2,
        k2=1,
    )
    p = parse_program(text)
    typecheck(p)
    out = eval_program(p, parse_value("[[[[1,2,3],[4,5,6]]],[[[7,8,9],[10,11,12]]]]"))
    assert print_value(out) == "[[[[3,2,1],[6,5,4]]],[[[9,8,7],[12,11,10]]]]"


def test_map_over_a_nested_swap_chain():
    text = NESTED_MAP.format(
        input="[[[(a,b)]<2>]<1>]<2>",
        h_sig="(a,b) -> (b,a)",
        h_body="fn h = prim swap",
        h_arg="(a,b)",
        h_ret="(b,a)",
        k1=2,
        k2=1,
    )
    p = parse_program(text)
    typecheck(p)
    out = eval_program(p, parse_value("[[[(1,2),(3,4)]],[[(5,6),(7,8)]]]"))
    assert print_value(out) == "[[[(2,1),(4,3)]],[[(6,5),(8,7)]]]"


def test_fold_over_a_nested_add_head_chain():
    text = """\
input s :: [[[[a]<2>]<2>]<2>]<1>
fn h :: b -> [a]<2> -> b
fn h = prim add_head
fn f1 :: b -> [[a]<2>]<2> -> b
fn f1 = foldof h
fn f2 :: b -> [[[a]<2>]<2>]<2> -> b
fn f2 = foldof f1
stage g = foldl f2 100
result r = g s
"""
    p = parse_program(text)
    typecheck(p)
    v = parse_value("[[[[1,2],[3,4]],[[5,6],[7,8]]]]")
    assert eval_program(p, v) == 100 + 1 + 3 + 5 + 7


def test_unchecked_fold_with_a_vector_accumulator_is_shape_error():
    p = Program(
        "s",
        parse_type("[a]<2>"),
        {"f": OpaqueFn("f", FnSig((Atom("b"), Atom("a")), Atom("b")), PrimDef("add"))},
        (("g", FoldStage("f", vv(1))),),
        "r",
    )
    with pytest.raises(ShapeError) as info:
        eval_program(p, ints(1, 2))
    assert str(info.value) == "primitive expected a scalar argument"


# One valid argument list per primitive, and values of each class to put in
# place of one argument at a time.
VALID_ARGS = {
    "add1": (5,),
    "mul3": (5,),
    "negate": (5,),
    "add": (2, 5),
    "mul": (2, 5),
    "max": (2, 5),
    "dec_shift": (2, 5),
    "sum": (ints(1, 2),),
    "reverse": (ints(1, 2),),
    "swap": (TupVal(1, 2),),
    "add_head": (2, ints(5, 6)),
    "zipt": (TupVal(ints(1), ints(2)),),
    "unzipt": (vv(TupVal(1, 2)),),
}
WRONG_CLASS = [3, True, VecVal(()), ints(1, 2), TupVal(1, 2)]


def _outcome(run):
    """What ``run()`` returns, or the class and text of what it raises."""
    try:
        return run()
    except Exception as e:
        return type(e), str(e)


def _nest(nodes, levels):
    """``nodes`` as the innermost vector, inside ``levels - 1`` singletons."""
    v = VecVal(tuple(nodes))
    for _ in range(levels - 1):
        v = vv(v)
    return v


@pytest.mark.parametrize("wrong", WRONG_CLASS, ids=["int", "bool", "empty", "vector", "pair"])
@pytest.mark.parametrize(
    "name, position", [(name, i) for name, (arity, _) in PRIMITIVES.items() for i in range(arity)]
)
def test_level_pass_raises_what_a_direct_call_raises(monkeypatch, name, position, wrong):
    """A ``map`` or ``foldl`` stage over a primitive, directly and one and two
    ``elementwise``/``foldof`` levels down, returns or raises exactly what
    direct calls of the checked primitive on the same nodes do, when one
    argument is replaced by a value that may be of another class."""
    arity, f = PRIMITIVES[name]
    args = VALID_ARGS[name]
    if arity == 1:
        acc, nodes = None, [args[0], wrong]
    elif position == 0:
        acc, nodes = wrong, [args[1], args[1]]
    else:
        acc, nodes = args[0], [args[1], wrong]

    def direct(levels):
        return _nest(map(f, nodes), levels) if arity == 1 else reduce(f, nodes, acc)

    # The stage's input is of no type: check only the level pass.
    monkeypatch.setattr(runtime, "conforms", lambda v, t: True)
    sig = FnSig((Atom("a"),) * arity, Atom("a"))
    fns = {"h1": OpaqueFn("h1", sig, PrimDef(name))}
    for levels in (1, 2, 3):
        if levels > 1:
            inner = ElementwiseDef if arity == 1 else FoldOfDef
            fns[f"h{levels}"] = OpaqueFn(f"h{levels}", sig, inner(f"h{levels - 1}"))
        stage = MapStage(f"h{levels}") if arity == 1 else FoldStage(f"h{levels}", acc)
        p = Program("s", Atom("a"), fns, (("g", stage),), "r")
        got = _outcome(lambda: eval_program(p, _nest(nodes, levels)))
        assert got == _outcome(lambda: direct(levels))
