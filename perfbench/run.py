"""Benchmark of vectx on one workload, in one process on one thread.

    python3 perfbench/run.py --workload derive_mix --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; vectx is imported from its ``src``.  An
operation is one case: a program text and a transform text are parsed and
derived, the boundary program runs on the benchmark's own input, the input
is re-chunked and the derived program runs on it, every output is checked
against results worked out without vectx (``workloads.expected``), and
``verify`` replays the derivation.  Cases run one after another, a closed
loop with one client, until ``--seconds`` have passed.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it has the per-layer metrics,
from spans recorded around every call into vectx and around the calls that
``vectx.derivation`` makes into the other modules.  The spans are written
to ``perfbench/out/<workload>-spans.jsonl`` and each result to
``perfbench/out/<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from types import SimpleNamespace

import workloads
from spans import Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

# The host's speed changes in bursts: for some seconds at a time, the same
# code runs up to 40% faster.  A median over a run moves with the share of
# the run that such bursts take.  So every timed figure is taken from each
# case's slowest round, and rounds are spread over the whole run, so that
# nearly every case has a round outside the bursts.  Set-up is timed this
# many times, half before the timed phase and half after it, and the slowest
# is reported; a first import that writes the bytecode cache shows only in
# the first run of a checkout.
SETUP_REPEATS = 8

# The vectx functions the benchmark calls, and the span around each call in
# the traced run.
BENCHMARK_CALLS = {
    "parse_program": "program_ir.parse_program",
    "parse_transform": "type_algebra.parse_transform",
    "eval_program": "runtime.eval_program",
    "apply_transform_value": "runtime.apply_transform_value",
    "derive": "derivation.derive",
    "verify": "derivation.verify",
}

# Names that vectx.derivation imports from the other modules (and its own
# factor_transform), wrapped in the traced run to see the calls derive and
# verify make.
DERIVATION_CALLS = {
    "typecheck": "program_ir.typecheck",
    "stage_output_type": "program_ir.stage_output_type",
    "apply_transform": "type_algebra.apply_transform",
    "factor_transform": "derivation.factor_transform",
    "random_value": "runtime.random_value",
    "eval_program": "runtime.eval_program",
    "apply_transform_value": "runtime.apply_transform_value",
}

# Per-layer time metrics: self time per case of the spans with these names.
LAYER_TIMES = {
    "program_ir.parse_program_s": ("program_ir.parse_program",),
    "program_ir.typecheck_s": ("program_ir.typecheck", "program_ir.stage_output_type"),
    "type_algebra.parse_transform_s": ("type_algebra.parse_transform",),
    "type_algebra.apply_transform_s": ("type_algebra.apply_transform",),
    "derivation.factor_transform_s": ("derivation.factor_transform",),
    "derivation.derive_self_s": ("derivation.derive",),
    "derivation.verify_self_s": ("derivation.verify",),
    "runtime.random_value_s": ("runtime.random_value",),
    "runtime.eval_program_s": ("runtime.eval_program",),
    "runtime.apply_transform_value_s": ("runtime.apply_transform_value",),
}

# Per-layer counts, summed over one pass through the workload's cases.
LAYER_COUNTS = (
    "derivation.input_steps",
    "derivation.generated_fns",
    "program_ir.derived_stages",
    "program_ir.boundary_stages",
    "runtime.trials",
    "runtime.leaf_elements",
)


class WrongOutput(Exception):
    """A check found an output that differs from the expected one."""


@dataclass(frozen=True)
class Draft:
    """The benchmark's own part of a case, made once, before any set-up is
    timed: the program text, the source and target type texts and the
    input literal."""

    spec: workloads.Spec
    program_text: str
    source_text: str
    target_text: str
    input_text: str


@dataclass(frozen=True)
class Case:
    spec: workloads.Spec
    program_text: str
    transform_text: str
    x: object  # the input value


def import_vectx() -> SimpleNamespace:
    """Import vectx afresh from the checkout and gather what the benchmark
    calls.  Only the checkout's own sources are accepted."""
    if not os.path.isfile(os.path.join(SRC, "vectx", "__init__.py")):
        raise SystemExit(f"perfbench: no vectx sources under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "vectx" or m.startswith("vectx.")]:
        del sys.modules[name]
    ta = importlib.import_module("vectx.type_algebra")
    ir = importlib.import_module("vectx.program_ir")
    rt = importlib.import_module("vectx.runtime")
    dv = importlib.import_module("vectx.derivation")
    return SimpleNamespace(
        derivation=dv,
        Vec=ta.Vec,
        Pair=ta.Pair,
        ComposedStage=ir.ComposedStage,
        parse_type=ta.parse_type,
        path_between=ta.path_between,
        print_transform=ta.print_transform,
        parse_transform=ta.parse_transform,
        parse_program=ir.parse_program,
        parse_value=rt.parse_value,
        print_value=rt.print_value,
        eval_program=rt.eval_program,
        apply_transform_value=rt.apply_transform_value,
        derive=dv.derive,
        verify=dv.verify,
        expects_preservation=dv.expects_preservation,
    )


def draft(spec: workloads.Spec) -> Draft:
    return Draft(
        spec,
        workloads.program_text(spec),
        workloads.type_text("a", spec.in_dims),
        workloads.type_text("a", spec.target_dims),
        workloads.input_text(spec),
    )


def build_case(api, d: Draft) -> Case:
    """The vectx part of a case: its transform text and its input value."""
    tr = api.path_between(api.parse_type(d.source_text), api.parse_type(d.target_text))
    return Case(
        d.spec,
        d.program_text,
        api.print_transform(tr),
        api.parse_value(d.input_text),
    )


def setup(drafts: list[Draft]):
    """Import vectx and build the workload's transform texts and input
    values from the drafts.  Returns the time taken first."""
    t0 = time.perf_counter()
    api = import_vectx()
    cases = [build_case(api, d) for d in drafts]
    return time.perf_counter() - t0, api, cases


def timed_setups(drafts: list[Draft], n: int, setup_times: list[float]):
    """Set up ``n`` times, freeing each set-up before the next is built, and
    append the times taken.  Returns the api and cases of the last one."""
    api = cases = None
    for _ in range(n):
        api = cases = None
        took, api, cases = setup(drafts)
        setup_times.append(took)
    return api, cases


def check(ok: bool, what: str):
    if not ok:
        raise WrongOutput(what)


def run_case(api, case: Case, expected: workloads.Expected, rec: Recorder | None = None):
    """One operation.  Returns the seconds of (derive, boundary run, verify);
    raises WrongOutput when a check fails."""
    clock = time.perf_counter
    t0 = clock()
    program = api.parse_program(case.program_text)
    tr = api.parse_transform(case.transform_text)
    d = api.derive(program, tr)
    t1 = clock()
    out = api.eval_program(d.boundary, case.x)
    t2 = clock()
    check(api.expects_preservation(d.verdict), f"verdict {d.verdict} does not promise preservation")
    check(api.print_value(out) == expected.output_text, "boundary program output differs")
    xt = api.apply_transform_value(tr, case.x)
    check(api.print_value(xt) == expected.rechunked_text, "transformed input differs")
    dout = api.eval_program(d.derived, xt)
    check(
        workloads.leaf_ints(api.print_value(dout)) == expected.derived_leaves,
        "derived program leaves differ",
    )
    t3 = clock()
    report = api.verify(d, case.spec.trials, case.spec.verify_seed)
    t4 = clock()
    check(report.trials == case.spec.trials, f"verify ran {report.trials} trials")
    check(report.failures == 0, f"verify failed {report.failures} of {report.trials} trials")
    if rec is not None:
        rec.add("derivation.input_steps", len(d.input_steps))
        rec.add("derivation.generated_fns", len(d.derived.fns) - len(program.fns))
        rec.add("program_ir.derived_stages", leaf_stages(api, d.derived))
        rec.add("program_ir.boundary_stages", leaf_stages(api, d.boundary))
        rec.add("runtime.trials", report.trials)
    return t1 - t0, t2 - t1, t4 - t3


def leaf_stages(api, program) -> int:
    """Stages of a program with composed stages unfolded at every depth."""
    todo = [stage for _, stage in program.stages]
    n = 0
    while todo:
        stage = todo.pop()
        if isinstance(stage, api.ComposedStage):
            todo.extend(stage.stages)
        else:
            n += 1
    return n


def scalars(api, t) -> int:
    """Leaf integers of a value of type t."""
    if isinstance(t, api.Vec):
        return t.size * scalars(api, t.element)
    if isinstance(t, api.Pair):
        return scalars(api, t.fst) + scalars(api, t.snd)
    return 1


def traced_api(api, rec: Recorder):
    """The benchmark's calls wrapped in spans, and the derivation module's
    imported names wrapped in place.  Returns the api and an undo function."""

    def leaf_count(program, v, *args, **kwargs):
        return "runtime.leaf_elements", scalars(api, program.input_type)

    wrapped = SimpleNamespace(**vars(api))
    for attr, span in BENCHMARK_CALLS.items():
        count = leaf_count if attr == "eval_program" else None
        setattr(wrapped, attr, rec.wrap(span, getattr(api, attr), count))
    dv = api.derivation
    saved = {name: getattr(dv, name) for name in DERIVATION_CALLS if hasattr(dv, name)}
    for name, fn in saved.items():
        count = leaf_count if name == "eval_program" else None
        setattr(dv, name, rec.wrap(DERIVATION_CALLS[name], fn, count))

    def undo():
        for name, fn in saved.items():
            setattr(dv, name, fn)

    return wrapped, undo


def timed_loop(api, cases, expected, seconds: float, rec: Recorder | None = None):
    """Run cases in order, round after round, until ``seconds`` have passed
    after a case ends; a traced run also finishes its first round.  ``times``
    holds (case, derive, boundary run, verify, whole case) seconds for each
    case that passed."""
    clock = time.perf_counter
    n = len(cases)
    attempted = failed = 0
    correct = True
    times = []
    start = clock()
    while True:
        i = attempted % n
        if rec is not None:
            rec.case = attempted
        t0 = clock()
        try:
            parts = run_case(api, cases[i], expected[i], rec)
            times.append((i, *parts, clock() - t0))
        except WrongOutput as e:
            failed += 1
            correct = False
            print(f"case {i}: wrong output: {e}", file=sys.stderr)
        except Exception:  # a case that raises is a failed operation; keep going
            failed += 1
            print(f"case {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
        attempted += 1
        if clock() - start >= seconds and (rec is None or attempted >= n):
            return attempted, failed, correct, times, start


def slowest_rounds(times) -> dict[int, list[float]]:
    """For each case that passed at least once, the largest of each of its
    times over the rounds of the run."""
    worst = {}
    for i, *ts in times:
        w = worst.get(i)
        worst[i] = ts if w is None else [max(a, b) for a, b in zip(w, ts)]
    return worst


def end_to_end(setup_times, elems, times, peak_rss_mb):
    """``times`` as ``timed_loop`` gives them, and ``elems`` the input leaf
    integers of each case.  A latency is the median over the cases of each
    case's slowest round; a rate is work over the sum of the slowest rounds,
    each case counted once."""
    worst = slowest_rounds(times).items()
    return {
        "setup_s": (max(setup_times), "s"),
        "derive_s": (statistics.median(w[0] for _, w in worst), "s"),
        "verify_s": (statistics.median(w[2] for _, w in worst), "s"),
        "run_elems_per_s": (sum(elems[i] for i, _ in worst) / sum(w[1] for _, w in worst), "elements/s"),
        "cases_per_s": (len(worst) / sum(w[3] for _, w in worst), "cases/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(rec: Recorder, attempted: int, n_cases: int):
    selfs = rec.self_times()
    metrics = {
        name: (sum(selfs.get(s, 0.0) for s in spans) / attempted, "s")
        for name, spans in LAYER_TIMES.items()
    }
    counts = rec.count_totals(range(n_cases))
    for name in LAYER_COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    drafts = [draft(spec) for spec in workloads.make_specs(args.workload, args.seed)]
    expected = [workloads.expected(d.spec) for d in drafts]
    setup_times = []
    api, cases = timed_setups(drafts, SETUP_REPEATS // 2, setup_times)
    # The cases and expected results are the benchmark's, not garbage of the
    # program under test: keep the collector from scanning them over and over.
    gc.collect()
    gc.freeze()

    rec = None
    if args.trace:
        rec = Recorder()
        api, undo = traced_api(api, rec)
    try:
        attempted, failed, correct, times, start = timed_loop(
            api, cases, expected, args.seconds, rec
        )
    finally:
        if rec is not None:
            undo()

    if not times:
        metrics = {}
    elif rec is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elems = [sum(map(len, d.spec.flat)) for d in drafts]
        # Free this run's inputs, so that the last set-ups start from the
        # heap the first ones had.
        api = cases = None
        gc.unfreeze()
        gc.collect()
        timed_setups(drafts, SETUP_REPEATS - SETUP_REPEATS // 2, setup_times)
        metrics = end_to_end(setup_times, elems, times, peak_rss_mb)
    else:
        metrics = per_layer(rec, attempted, len(cases))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    if rec is not None:
        rec.write(os.path.join(OUT, f"{args.workload}-spans.jsonl"), start)
    with open(os.path.join(OUT, f"{args.workload}-trace{args.trace}.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, **result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
