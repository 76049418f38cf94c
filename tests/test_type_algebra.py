import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gen import (
    random_applicable_transform,
    random_structural_transform,
    random_type,
)
from vectx.errors import (
    AtomMismatchError,
    DimensionError,
    DivisibilityError,
    PairMismatchError,
    ParseError,
    ShapeError,
    SizeMismatchError,
)
from vectx.type_algebra import (
    IDENTITY,
    Atom,
    Lift,
    MapElem,
    Pair,
    Regroup,
    RegroupInv,
    Transform,
    Unlift,
    Vec,
    apply_op,
    apply_transform,
    compose,
    invert_transform,
    leaf_of,
    parse_transform,
    parse_type,
    path_between,
    print_transform,
    print_type,
    total_size,
)

A = Atom("a")


def T(text):
    return parse_type(text)


def TR(text):
    return parse_transform(text)


# -- total_size --------------------------------------------------------------


def test_total_size_nested():
    assert total_size(T("[[a]<3>]<4>")) == 12
    assert total_size(T("[a]<3><4>")) == 12


def test_total_size_atom_is_empty_product():
    assert total_size(A) == 1


def test_total_size_single_factor():
    assert total_size(T("[a]<7>")) == 7


# -- apply_op ----------------------------------------------------------------


def test_regroup_moves_factor_inward():
    assert apply_op(Regroup(2), T("[[a]<1>]<6>")) == T("[[a]<2>]<3>")


def test_lift_wraps_atom():
    assert apply_op(Lift(), A) == T("[a]<1>")


def test_regroup_divisibility_error():
    with pytest.raises(DivisibilityError):
        apply_op(Regroup(4), T("[[a]<3>]<6>"))


def test_mapelem_lift_adds_inner_dimension():
    assert apply_op(MapElem(Transform((Lift(),))), T("[a]<6>")) == T("[a]<1><6>")


def test_unlift_requires_singleton():
    assert apply_op(Unlift(), T("[a]<1>")) == A
    with pytest.raises(DimensionError):
        apply_op(Unlift(), T("[a]<2>"))
    with pytest.raises(DimensionError):
        apply_op(Unlift(), A)


def test_regroup_on_atom_is_identity():
    assert apply_op(Regroup(3), A) == A
    assert apply_op(MapElem(TR("S")), A) == A


def test_regroup_on_flat_vector_is_shape_error():
    with pytest.raises(ShapeError):
        apply_op(Regroup(2), T("[a]<6>"))
    with pytest.raises(ShapeError):
        apply_op(RegroupInv(2), T("[a]<6>"))


def test_ops_distribute_over_pairs():
    t = Pair(T("[a]<4>"), T("[b]<4>"))
    assert apply_transform(TR("R 2 M ( S )"), t) == Pair(
        T("[[a]<2>]<2>"), T("[[b]<2>]<2>")
    )


def test_pair_under_vector_is_a_leaf():
    t = T("[(a,b)]<4>")
    assert apply_transform(TR("M ( S )"), t) == T("[(a,b)]<1><4>")
    assert apply_transform(TR("R 2 M ( S )"), t) == T("[(a,b)]<2><2>")
    assert apply_transform(TR("M ( S^-1 ) R^-1 2"), T("[(a,b)]<2><2>")) == t


def test_apply_op_agrees_with_one_op_transform_on_pairs():
    top = Pair(T("[a]<4>"), T("[b]<4>"))
    nested = T("[(a,b)]<4>")
    for op in (Lift(), MapElem(TR("S"))):
        for t in (top, nested):
            assert apply_op(op, t) == apply_transform(Transform((op,)), t)
    assert apply_op(MapElem(TR("S")), top) == Pair(T("[a]<1><4>"), T("[b]<1><4>"))
    assert apply_op(MapElem(TR("S")), nested) == T("[(a,b)]<1><4>")


# -- apply_transform ---------------------------------------------------------


def test_chunking_transform():
    assert apply_transform(TR("R 2 M ( S )"), T("[a]<6>")) == T("[[a]<2>]<3>")


def test_flattening_transform():
    assert apply_transform(TR("M ( S^-1 ) R^-1 3"), T("[[a]<3>]<4>")) == T("[a]<12>")


def test_identity_transform():
    assert apply_transform(TR("I"), T("[a]<5>")) == T("[a]<5>")
    assert apply_transform(IDENTITY, T("[a]<5>")) == T("[a]<5>")


def test_transform_error_names_position():
    with pytest.raises(DivisibilityError, match="position 0"):
        apply_transform(TR("R 4 M ( S )"), T("[a]<6>"))


# -- invert ------------------------------------------------------------------


def test_invert_chunking():
    assert invert_transform(TR("R 2 M ( S )")) == TR("M ( S^-1 ) R^-1 2")


def test_invert_identity():
    assert invert_transform(TR("I")) == TR("I")


def test_double_invert_is_identity_structurally():
    rng = random.Random(7)
    for _ in range(500):
        tr = random_structural_transform(rng)
        assert invert_transform(invert_transform(tr)) == tr


def test_inverse_round_trip_on_random_applicable_pairs():
    rng = random.Random(11)
    for _ in range(300):
        t = random_type(rng, rng.randint(1, 64))
        tr = random_applicable_transform(rng, t)
        out = apply_transform(tr, t)
        assert apply_transform(invert_transform(tr), out) == t


# -- path_between ------------------------------------------------------------


def test_path_between_reaches_target():
    t1, t2 = T("[a]<6>"), T("[[a]<2>]<3>")
    assert apply_transform(path_between(t1, t2), t1) == t2


def test_path_between_same_type():
    t = T("[a]<8>")
    assert apply_transform(path_between(t, t), t) == t


def test_path_between_cancels_the_levels_both_types_share():
    assert path_between(T("[a]<2><6>"), T("[a]<2><3><2>")) == TR("R 3 M ( S )")


def test_path_between_equal_pairs_is_identity():
    for t in ("(a,b)", "([a]<2><2>,[b]<4>)"):
        assert path_between(T(t), T(t)) == IDENTITY


def test_path_between_rejects_a_bare_leaf():
    with pytest.raises(ShapeError, match="a is not a vector"):
        path_between(A, T("[a]<1>"))


def test_path_between_size_mismatch():
    with pytest.raises(SizeMismatchError):
        path_between(T("[a]<6>"), T("[a]<7>"))


def test_path_between_atom_mismatch():
    with pytest.raises(AtomMismatchError):
        path_between(T("[a]<6>"), T("[b]<6>"))


def test_path_between_pairs_takes_the_common_component_path():
    t1, t2 = T("([a]<8>,[b]<8>)"), T("([a]<2><4>,[b]<2><4>)")
    tr = path_between(t1, t2)
    assert tr == path_between(T("[a]<8>"), T("[a]<2><4>"))
    assert apply_transform(tr, t1) == t2


def test_path_between_pair_and_vector_is_a_pair_mismatch():
    for t1, t2 in [("([a]<8>,[b]<8>)", "[(a,b)]<8>"), ("[(a,b)]<8>", "([a]<8>,[b]<8>)")]:
        with pytest.raises(PairMismatchError, match="between a pair and a vector"):
            path_between(T(t1), T(t2))


def test_path_between_pair_components_need_one_path():
    with pytest.raises(PairMismatchError, match=r"first \[a\]<8> to \[a\]<2><4>, second"):
        path_between(T("([a]<8>,[b]<8>)"), T("([a]<2><4>,[b]<4><2>)"))


# -- parse / print -----------------------------------------------------------


def test_parse_sizes_innermost_first():
    assert parse_type("[a]<2><3>") == Vec(3, Vec(2, A))


def test_parse_atom():
    assert parse_type("a") == A


def test_parse_rejects_zero_size():
    with pytest.raises(ParseError):
        parse_type("[a]<0>")


@pytest.mark.parametrize(
    "text, message",
    [
        ("R 0", "regroup factor must be >= 1, got 0 at column 3"),
        ("R^-1 0", "regroup factor must be >= 1, got 0 at column 6"),
        ("M ( R 0 )", "regroup factor must be >= 1, got 0 at column 7"),
    ],
)
def test_parse_transform_rejects_zero_factor(text, message):
    with pytest.raises(ParseError) as info:
        parse_transform(text)
    assert str(info.value) == message
    assert parse_transform("R 1") == Transform((Regroup(1),))


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse_type("[a]<2> x")
    with pytest.raises(ParseError):
        parse_transform("R 2 ]")


def test_parse_pair_type():
    assert parse_type("([a]<2>,b)") == Pair(Vec(2, A), Atom("b"))


@pytest.mark.parametrize(
    "parse, nested",
    [
        (parse_type, lambda d: "[" * d + "a" + "]<1>" * d),
        (parse_type, lambda d: "(a," * d + "a" + ")" * d),
        (parse_transform, lambda d: "M ( " * d + "S" + " )" * d),
    ],
    ids=["vector-type", "pair-type", "transform"],
)
def test_parse_rejects_deep_nesting(parse, nested):
    with pytest.raises(ParseError, match="nesting"):
        parse(nested(3000))
    parsed = parse(nested(50))
    assert parse(print_type(parsed) if parse is parse_type else print_transform(parsed)) == parsed


def test_parse_rejects_sizes_past_the_conversion_limit():
    with pytest.raises(ParseError, match="at column 5"):
        parse_type("[a]<" + "1" * 5000 + ">")


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_type, "[a]<²>", "expected an integer at column 5"),
        (parse_transform, "R ²", "expected an integer at column 3"),
    ],
)
def test_parse_rejects_digits_int_cannot_read(parse, text, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert str(info.value) == message


# Each ParseError of the type and transform parsers: the parser, the text,
# the error class and the full message.
PARSE_ERRORS = [
    (parse_type, "[a<2>", ParseError, "expected ']' at column 3"),
    (parse_type, "(a b)", ParseError, "expected ',' at column 4"),
    (parse_type, "[a]", ParseError, "expected at least one <size> at column 4"),
    (parse_type, "[a]<2", ParseError, "expected '>' at column 6"),
    (parse_transform, "S^1", ParseError, "expected -1 after ^ at column 3"),
    (parse_transform, "I^-1", ParseError, "I has no inverse marker at column 4"),
    (parse_transform, "M^-1 ( S )", ParseError, "write M ( F^-1 ) rather than M^-1 at column 4"),
    (parse_transform, "Q 2", ParseError, "unknown operation 'Q' at column 2"),
    (parse_transform, "V 2", ParseError, "unknown operation 'V' at column 2"),
    (parse_transform, "V^-1 2", ParseError, "unknown operation 'V' at column 4"),
    (parse_transform, "S )", ParseError, "trailing input after transform at column 3"),
    (parse_transform, "M ( S", ParseError, "expected ')' at column 6"),
    (parse_transform, "M S", ParseError, "expected '(' at column 3"),
]


@pytest.mark.parametrize("parse, text, error, message", PARSE_ERRORS)
def test_parse_error_texts(parse, text, error, message):
    with pytest.raises(error) as info:
        parse(text)
    assert str(info.value) == message


types = st.recursive(
    st.sampled_from(["a", "b", "x_1"]).map(Atom),
    lambda kids: st.one_of(
        st.builds(Vec, st.integers(1, 5), kids),
        st.builds(Pair, kids, kids),
    ),
    max_leaves=8,
)


@given(types)
def test_type_print_parse_round_trip(t):
    assert parse_type(print_type(t)) == t


def test_transform_print_parse_round_trip():
    # The printed form is stable through a parse; the structure is checked
    # by test_parse_inverts_print_on_transforms.
    rng = random.Random(23)
    for _ in range(200):
        tr = random_structural_transform(rng)
        text = print_transform(tr)
        assert print_transform(parse_transform(text)) == text


def test_parse_inverts_print_on_transforms():
    # ``I`` is the text of the empty transform, so it parses back to it, at
    # the top and under ``M``.
    rng = random.Random(41)
    transforms = [IDENTITY, Transform((MapElem(IDENTITY),))]
    for _ in range(200):
        t = random_type(rng, rng.randint(1, 64))
        transforms.append(random_applicable_transform(rng, t))
    for tr in transforms:
        assert parse_transform(print_transform(tr)) == tr


def test_transform_parse_example():
    assert parse_transform("R 4 M ( S )") == Transform(
        (Regroup(4), MapElem(Transform((Lift(),))))
    )


# -- algebraic properties ----------------------------------------------------


def test_size_invariance():
    rng = random.Random(31)
    for _ in range(300):
        t = random_type(rng, rng.randint(1, 64))
        tr = random_applicable_transform(rng, t)
        assert total_size(apply_transform(tr, t)) == total_size(t)


def test_closure_same_atom_same_size():
    rng = random.Random(37)
    for _ in range(200):
        n = rng.randint(1, 64)
        t = random_type(rng, n)
        out = apply_transform(random_applicable_transform(rng, t), t)
        assert total_size(out) == n
        assert leaf_of(out) == leaf_of(t)


def test_completeness_small_sizes():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(1, 64)
        t1 = random_type(rng, n)
        t2 = random_type(rng, n)
        assert apply_transform(path_between(t1, t2), t1) == t2


def test_composition_is_concatenation_and_associative():
    rng = random.Random(43)
    for _ in range(100):
        f = random_structural_transform(rng)
        g = random_structural_transform(rng)
        h = random_structural_transform(rng)
        assert compose(f, compose(g, h)) == compose(compose(f, g), h)
        assert compose(f, IDENTITY) == f
        assert compose(IDENTITY, f) == f


def test_composition_applies_right_to_left():
    t = T("[a]<6>")
    f = TR("R 2")
    g = TR("M ( S )")
    assert apply_transform(compose(f, g), t) == apply_transform(
        f, apply_transform(g, t)
    )


def test_lift_unlift_identities():
    rng = random.Random(47)
    for _ in range(100):
        t = random_type(rng, rng.randint(1, 32))
        assert apply_transform(TR("S^-1 S"), t) == t
    assert apply_transform(TR("S S^-1"), T("[a]<1>")) == T("[a]<1>")
