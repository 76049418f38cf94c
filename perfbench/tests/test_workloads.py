"""The expected results, worked out without vectx, against hand-worked cases."""

from workloads import Spec, expected, leaf_ints, make_specs, nest, program_text, value_text


def spec(in_dims, stages, target, *flat):
    return Spec(in_dims, stages, target, tuple(tuple(c) for c in flat), 1, 0)


def test_nest_is_innermost_first():
    assert nest(range(6), (2, 3)) == [[0, 1], [2, 3], [4, 5]]
    assert nest(range(6), (3, 2)) == [[0, 1, 2], [3, 4, 5]]
    assert nest(range(8), (2, 2, 2)) == [[[0, 1], [2, 3]], [[4, 5], [6, 7]]]
    assert nest(range(3), (3,)) == [0, 1, 2]


def test_value_text_matches_vectx_literals():
    assert value_text(-7) == "-7"
    assert value_text([[1, -2], [3, 4]]) == "[[1,-2],[3,4]]"
    assert value_text(([1, 2], [[3], [4]])) == "([1,2],[[3],[4]])"


def test_leaf_ints_splits_only_a_top_level_pair():
    assert leaf_ints("-17") == [-17]
    assert leaf_ints("[[1,-2],[3,4]]") == [1, -2, 3, 4]
    assert leaf_ints("([1,-2],[[3],[4]])") == ([1, -2], [3, 4])


def test_maps_apply_leaf_by_leaf_in_stage_order():
    e = expected(spec((2, 2), (("map", "add1"), ("map", "mul3")), (4,), [1, 2, 3, 4]))
    assert e.output_text == "[[6,9],[12,15]]"
    assert e.rechunked_text == "[1,2,3,4]"
    assert e.derived_leaves == [6, 9, 12, 15]


def test_reshape_stages_keep_the_flat_order():
    e = expected(spec((6,), (("reshapeTo", 2), ("map", "negate")), (3, 2), range(6)))
    assert e.output_text == "[[0,-1],[-2,-3],[-4,-5]]"
    assert e.rechunked_text == "[[0,1,2],[3,4,5]]"
    e = expected(spec((2, 3), (("reshapeFrom", 2), ("reshapeTo", 3)), (6,), range(6)))
    assert e.output_text == "[[0,1,2],[3,4,5]]"


def test_final_fold_is_a_left_fold_of_its_step():
    e = expected(spec((3,), (("foldl", "dec_shift"),), (3,), [1, 2, 3]))
    assert e.output_text == "123"
    assert e.derived_leaves == [123]
    # ((0*10 - 1)*10 - 2)*10 - 3 after the negation
    e = expected(spec((3, 1), (("map", "negate"), ("foldl", "dec_shift")), (3,), [1, 2, 3]))
    assert e.output_text == "-123"
    e = expected(spec((2, 2), (("map", "mul3"), ("foldl", "max")), (4,), [-5, 2, 7, -1]))
    assert e.output_text == "21"


def test_swap_exchanges_the_components():
    e = expected(spec((2,), (("zipt",), ("swap",), ("unzipt",)), (2,), [1, 2], [3, 4]))
    assert e.output_text == "([3,4],[1,2])"
    assert e.derived_leaves == ([3, 4], [1, 2])
    e = expected(spec((2, 2), (("zipt",), ("swap",), ("unzipt",)), (4,), [1, 2, 3, 4], [5, 6, 7, 8]))
    assert e.output_text == "([[5,6],[7,8]],[[1,2],[3,4]])"
    assert e.rechunked_text == "([1,2,3,4],[5,6,7,8])"


def test_program_text_declares_every_chunk_function():
    text = program_text(spec((2, 3), (("map", "add1"), ("foldl", "add")), (6,), range(6)))
    assert text == (
        "input s :: [a]<2><3>\n"
        "fn m1_0 :: a -> a\n"
        "fn m1_0 = prim add1\n"
        "fn m1_1 :: [a]<2> -> [a]<2>\n"
        "fn m1_1 = elementwise m1_0\n"
        "stage s1 = map m1_1\n"
        "fn g2_0 :: a -> a -> a\n"
        "fn g2_0 = prim add\n"
        "fn g2_1 :: a -> [a]<2> -> a\n"
        "fn g2_1 = foldof g2_0\n"
        "stage s2 = foldl g2_1 0\n"
        "result r = s1 |> s2 s\n"
    )


def test_specs_repeat_for_a_seed():
    for workload in ("derive_mix", "verify_assoc", "verify_pairs_bigint"):
        assert make_specs(workload, 7) == make_specs(workload, 7)
    assert make_specs("derive_mix", 7) != make_specs("derive_mix", 8)
