import copy
import pickle
import random
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gen import flatten, randint_value, random_applicable_transform, random_type, shape_of
from vectx.errors import (
    DivisibilityError,
    LengthMismatchError,
    MissingPrimitiveError,
    ParseError,
    ShapeError,
    StageTypeError,
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
    compile_columns,
    compile_program,
    conforms,
    eval_program,
    from_vector,
    leaf_columns,
    parse_value,
    primitive_type,
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


# Values that do not conform to a type, from the rows above: a wrong size, a
# non-integer leaf, a ragged or misplaced part deep down, a plain tuple.
NON_CONFORMING = [
    (ints(1, 2, 3), "[a]<4>"),
    (vv(1.5, 2), "[a]<2>"),
    (vv(True, 2), "[a]<2>"),
    (parse_value("[[[1,2],[3,4]],[[5,6]]]"), "[[[a]<2>]<2>]<2>"),
    (parse_value("[[[1,2],(3,4)],[[5,6],[7,8]]]"), "[[[a]<2>]<2>]<2>"),
    (parse_value("[[[1,2],[3,4]],[[5,6],[7,8,9]]]"), "[[[a]<2>]<2>]<2>"),
    (vv(vv(ints(1, 2), ints(3, 4)), vv(ints(5, 6), ints(7, True))), "[[[a]<2>]<2>]<2>"),
    (parse_value("[([1,2],[3,4]),([5,6],[7,8]),([9,10],[11,12])]"), "[([a]<2>,[b]<3>)]<3>"),
    ((1, 2), "(a,b)"),
]


@pytest.mark.parametrize("v, text", NON_CONFORMING)
def test_leaf_columns_are_none_where_a_value_does_not_conform(v, text):
    t = parse_type(text)
    assert leaf_columns(v, t) is None and not conforms(v, t)


@pytest.mark.parametrize(
    "text, type_text, columns",
    [
        ("7", "a", ((7,),)),
        ("[[1,2],[3,4],[5,6]]", "[[a]<2>]<3>", ((1, 2, 3, 4, 5, 6),)),
        ("([1,2],[3,4])", "([a]<2>,[b]<2>)", ((1, 2), (3, 4))),
        (
            "[([1,2],[3,4]),([5,6],[7,8]),([9,10],[11,12])]",
            "[([a]<2>,[b]<2>)]<3>",
            ((1, 2, 5, 6, 9, 10), (3, 4, 7, 8, 11, 12)),
        ),
        ("[((1,2),3),((4,5),6)]", "[((a,b),c)]<2>", ((1, 4), (2, 5), (3, 6))),
    ],
)
def test_leaf_columns_hold_each_atoms_leaves_in_leaf_order(text, type_text, columns):
    v, t = parse_value(text), parse_type(type_text)
    assert leaf_columns(v, t) == columns and conforms(v, t)


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


@pytest.mark.parametrize(
    "text",
    ["[a]<1>", "[a]<2>", "[a]<3>", "[a]<199>", "[a]<1000>", "[a]<7777>", "[a]<3><5><7>",
     "[[a]<64>]<64>", "([a]<3><2>,[b]<2>)", "[(a,[b]<2>)]<5>", "([a]<2500>,[[b]<5>]<500>)"],
)
def test_random_value_draws_are_randint_per_leaf(text):
    # random_value draws by the rejection sampling of randint, a CPython
    # detail: it must give the same leaves and leave the same state.
    t = parse_type(text)
    for seed in range(12):
        rng, ref = random.Random(seed), random.Random(seed)
        v = random_value(t, rng)
        assert v == randint_value(t, ref) and conforms(v, t)
        assert rng.getstate() == ref.getstate()


def test_random_value_refuses_more_than_max_leaves_before_drawing():
    rng = random.Random(3)
    state = rng.getstate()
    half = MAX_LEAVES // 2  # both parts of a pair count
    for text in ("[a]<65536><65536>", f"([a]<{half}>,[b]<{half + 1}>)"):
        with pytest.raises(ShapeError, match=f"MAX_LEAVES = {MAX_LEAVES}"):
            random_value(parse_type(text), rng)
    assert rng.getstate() == state


# Ways to advance an rng mid-stream: random() takes two Mersenne Twister
# words and getrandbits(5) one, so the draw that follows starts elsewhere.
ADVANCES = {"random": random.Random.random, "getrandbits(5)": lambda rng: rng.getrandbits(5)}


@st.composite
def draw_types(draw):
    """A vector type from ``gen.random_type``, a pair of two, or a vector of
    such pairs."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    a, b = (random_type(rng, draw(st.integers(1, 700)), atom=x) for x in "ab")
    kind = draw(st.sampled_from(["vector", "pair", "vector of pairs"]))
    if kind == "vector":
        return a
    return Pair(a, b) if kind == "pair" else Vec(draw(st.integers(1, 4)), Pair(a, b))


def assert_draws_randint_per_leaf(t, rng: random.Random, ref: random.Random):
    v = random_value(t, rng)
    assert v == randint_value(t, ref) and conforms(v, t)
    assert rng.getstate() == ref.getstate()


@given(draw_types(), st.integers(0, 2**32), st.lists(st.sampled_from(sorted(ADVANCES))))
def test_random_value_draws_randint_per_leaf_mid_stream(t, seed, advances):
    rng, ref = random.Random(seed), random.Random(seed)
    for name in advances:
        for r in (rng, ref):
            ADVANCES[name](r)
    assert_draws_randint_per_leaf(t, rng, ref)


@pytest.mark.parametrize("text", ["a", "(a,b)", "[a]<1>", "([a]<1>,b)"])
def test_random_value_draws_one_leaf_as_randint(text):
    # One leaf and two: itemgetter of one index gives the item, not a 1-tuple.
    for seed in range(200):
        assert_draws_randint_per_leaf(parse_type(text), random.Random(seed), random.Random(seed))


class CountingRandom(random.Random):
    """A ``random.Random`` that records the width of each getrandbits call."""

    def __init__(self, seed):
        self.widths = []
        super().__init__(seed)

    def getrandbits(self, k):
        self.widths.append(k)
        return super().getrandbits(k)


def test_random_value_refills_with_the_leaves_still_missing():
    # Every round asks for as many words as leaves are missing, so no round
    # is wider than the last; rejections make a draw take several.
    rounds = []
    for n in (5, 64, 1000, 16384):
        for seed in range(10):
            rng = CountingRandom(seed)
            assert_draws_randint_per_leaf(Vec(n, Atom("a")), rng, random.Random(seed))
            assert rng.widths[0] == 32 * n
            assert all(w >= x > 0 for w, x in zip(rng.widths, rng.widths[1:]))
            rounds.append(len(rng.widths))
    assert max(rounds) >= 5


def test_random_value_splits_a_draw_past_the_batch_cap():
    cap = runtime._BATCH_WORDS
    rng = CountingRandom(4)
    t = parse_type(f"([a]<{cap}>,[[b]<2>]<{cap}>)")
    assert_draws_randint_per_leaf(t, rng, random.Random(4))
    assert rng.widths[:3] == [32 * cap] * 3 and max(rng.widths) == 32 * cap


@pytest.mark.parametrize("cap", [1, 2, 7, 100])
def test_random_value_draws_do_not_depend_on_the_batch_cap(monkeypatch, cap):
    monkeypatch.setattr(runtime, "_BATCH_WORDS", cap)
    for text in ("a", "[a]<1>", "[a]<250>", "[(a,[b]<3>)]<40>"):
        for seed in range(5):
            assert_draws_randint_per_leaf(parse_type(text), random.Random(seed), random.Random(seed))


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


def test_zipt_and_unzipt_of_empty_vectors():
    empty = VecVal(())
    assert zipt(TupVal(empty, empty)) == empty
    assert unzipt(empty) == TupVal(empty, empty)


@pytest.mark.parametrize(
    "v", [3, TupVal(ints(1), ints(2)), ints(1, 2), vv(TupVal(1, 2), (3, 4))], ids=repr
)
def test_unzipt_needs_a_vector_of_pairs(v):
    with pytest.raises(ShapeError, match="^unzipt needs a vector of pairs$"):
        unzipt(v)


def test_a_pair_value_is_a_tuple_only_in_its_storage():
    p = TupVal(1, ints(2, 3))
    assert (p.fst, p.snd) == (1, ints(2, 3))
    assert repr(p) == "TupVal(fst=1, snd=VecVal(items=(2, 3)))"
    with pytest.raises(AttributeError):
        p.fst = 4
    assert TupVal(1, 2) != VecVal((1, 2))
    assert not conforms((1, 2), Pair(Atom("a"), Atom("b")))
    for q in (copy.copy(p), pickle.loads(pickle.dumps(p))):
        assert q == p and type(q) is TupVal


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
        tr = random_applicable_transform(rng, t)
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
        tr = random_applicable_transform(rng, t)
        v = random_value(t, rng)
        out = apply_transform_value(tr, v)
        assert shape_of(out) == apply_transform(tr, shape_of(v))
        assert flatten(out) == flatten(v)


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


@pytest.mark.parametrize(
    "text, message",
    [("[1,,2]", "unexpected character ',' in value at column 4"),
     ("[1-2]", "expected , or ] in vector literal at column 3"),
     ("[--1]", "unexpected character '-' in value at column 2")],
)
def test_parse_value_errors_inside_a_vector_of_integers(text, message):
    with pytest.raises(ParseError) as info:
        parse_value(text)
    assert str(info.value) == message


def test_parse_value_reads_space_between_any_tokens():
    assert parse_value(" [ ( 1 , [ -2 ,3 ] ) , ( 4,[5 , 6]) ] ") == parse_value("[(1,[-2,3]),(4,[5,6])]")


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
    with pytest.raises(ParseError, match="integer too long.* at column 6$"):
        parse_value("[1,2," + "1" * 5000 + ",3]")
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


def random_any_type(rng: random.Random, depth: int = 0):
    """A small type of any shape over the atoms a and b: an atom, a vector of
    size 1 or 2, or a pair, at most three levels deep."""
    kind = rng.randrange(3 if depth < 3 else 1)
    if kind == 0:
        return Atom(rng.choice("ab"))
    if kind == 1:
        return Vec(rng.randint(1, 2), random_any_type(rng, depth + 1))
    return Pair(random_any_type(rng, depth + 1), random_any_type(rng, depth + 1))


def prim_program(name, args, ret) -> Program:
    """A program with no stage and one function, primitive ``name`` declared
    at the signature ``args -> ret``."""
    fns = {"f": OpaqueFn("f", FnSig(args, ret), PrimDef(name))}
    return Program("s", Atom("a"), fns, (), "r")


@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_each_primitive_returns_the_type_its_row_gives(name):
    # Argument types the row accepts: the checked primitive, on random values
    # of them, returns a value of the type the row gives, and a declaration at
    # that signature typechecks.  A type the row refuses does not typecheck.
    rng = random.Random(name)
    arity, f = PRIMITIVES[name]
    accepted, refused = [], []
    for _ in range(2000):
        args = tuple(random_any_type(rng) for _ in range(arity))
        try:
            accepted.append((args, primitive_type(name, args)))
        except ShapeError:
            refused.append(args)
        if len(accepted) >= 4 and refused:
            break
    assert len(accepted) >= 4 and refused
    for args, ret in accepted:
        for _ in range(3):
            assert conforms(f(*(random_value(t, rng) for t in args)), ret)
        typecheck(prim_program(name, args, ret))
    with pytest.raises(StageTypeError):
        typecheck(prim_program(name, refused[0], refused[0][0]))


def test_compile_columns_leaves_other_stages_to_the_reference():
    # An opaque primitive has no column rule; the program runs on values.
    p = parse_program(
        "input s :: [[a]<2>]<3>\nfn f :: [a]<2> -> [a]<2>\nfn f = prim reverse\n"
        "stage g = map f\nresult r = g s\n"
    )
    assert compile_columns(typecheck(p)) is None


def test_a_swap_declared_at_its_own_pair_type_runs_on_columns():
    # Atoms are labels, so swap over (a,b) may be declared to return (a,b).
    p = parse_program(
        "input s :: [(a,b)]<3>\nfn f :: (a,b) -> (a,b)\nfn f = prim swap\n"
        "stage g = map f\nresult r = g s\n"
    )
    typed = typecheck(p)
    run = compile_columns(typed)
    for seed in range(3):
        v = random_value(p.input_type, random.Random(seed))
        expected = leaf_columns(eval_program(p, v), typed.result_type)
        assert expected is not None
        assert run(leaf_columns(v, p.input_type)) == expected
