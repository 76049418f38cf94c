"""The benchmark's checks bite: a wrong output or a failed verify trial makes
the case a failed operation, and a correct case passes; the timed figures
come from each case's slowest round."""

from dataclasses import replace
from types import SimpleNamespace

import pytest

import run
from workloads import Spec, expected, make_specs


@pytest.fixture(scope="module")
def api():
    return run.import_vectx()


def one_case(api, case, exp):
    """Run a single case through the benchmark loop."""
    attempted, failed, correct, _, _ = run.timed_loop(api, [case], [exp], 0)
    return attempted, failed, correct


def case_of(api, s: Spec):
    return run.build_case(api, run.draft(s)), expected(s)


def test_workload_cases_pass(api):
    for s in make_specs("derive_mix", 3)[:60]:
        assert one_case(api, *case_of(api, s)) == (1, 0, True)


def test_reversed_chunk_is_a_failed_operation(api):
    case, exp = case_of(api, Spec((2, 4), (("map", "add1"),), (4, 2), ((1, 2, 3, 4, 5, 6, 7, 8),), 2, 0))
    assert exp.output_text == "[[2,3],[4,5],[6,7],[8,9]]"
    real = api.eval_program

    def first_chunk_reversed(program, x):
        out = real(program, x)
        first = replace(out.items[0], items=out.items[0].items[::-1])
        return replace(out, items=(first, *out.items[1:]))

    assert one_case(api, case, exp) == (1, 0, True)
    assert one_case(SimpleNamespace(**{**vars(api), "eval_program": first_chunk_reversed}), case, exp) == (1, 1, False)


def test_wrong_boundary_output_is_a_failed_operation(api):
    case, exp = case_of(api, Spec((2, 2), (("map", "add1"),), (4,), ((1, 2, 3, 4),), 2, 0))
    assert exp.output_text == "[[2,3],[4,5]]"
    assert one_case(api, case, exp) == (1, 0, True)
    assert one_case(api, case, replace(exp, output_text="[[3,2],[4,5]]")) == (1, 1, False)
    assert one_case(api, case, replace(exp, derived_leaves=[2, 3, 5, 4])) == (1, 1, False)


def test_failed_verify_trial_is_a_failed_operation(api):
    case, exp = case_of(api, Spec((4,), (("map", "mul3"),), (2, 2), ((1, 2, 3, 4),), 3, 0))
    report = api.derivation.VerifyReport

    def one_trial_fails(d, trials, seed):
        return report(trials, trials - 1, 1, None, True)

    assert one_case(api, case, exp) == (1, 0, True)
    assert one_case(SimpleNamespace(**{**vars(api), "verify": one_trial_fails}), case, exp) == (1, 1, False)


def test_raising_case_is_a_failed_operation(api):
    case, exp = case_of(api, Spec((4,), (("map", "mul3"),), (2, 2), ((1, 2, 3, 4),), 3, 0))
    case = replace(case, transform_text="R 3 M ( S )")
    assert one_case(api, case, exp) == (1, 1, True)


def test_times_are_each_cases_slowest_round():
    # (case, derive, boundary run, verify, whole case): case 0 ran twice.
    times = [(0, 1.0, 4.0, 2.0, 9.0), (1, 3.0, 1.0, 1.0, 6.0), (0, 2.0, 3.0, 1.0, 8.0)]
    assert run.slowest_rounds(times) == {0: [2.0, 4.0, 2.0, 9.0], 1: [3.0, 1.0, 1.0, 6.0]}
    m = run.end_to_end([0.5, 0.7, 0.6], [10, 30], times, 40.0)
    assert m["setup_s"] == (0.7, "s")
    assert m["derive_s"] == (2.5, "s")
    assert m["verify_s"] == (1.5, "s")
    assert m["run_elems_per_s"] == (40 / 5.0, "elements/s")
    assert m["cases_per_s"] == (2 / 15.0, "cases/s")
