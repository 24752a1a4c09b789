"""Tests for the benchmark's own code (checkers, expected trees, statistics,
input generation and the tracer).

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import itertools
import pickle
import random
from pathlib import Path

import natbdd
import pytest

import run
import tracing
import workloads


# ------------------------------------------------------------- checkers


def _first_result(name: str, seed: int = 3) -> tuple[workloads.Case, object]:
    w = workloads.WORKLOADS[name]
    case, op = next(iter(w.ops(natbdd, None, w.make_round(seed, 0))))
    return case, op()


def test_dense_checker_flags_each_wrong_component():
    case, result = _first_result("dense_tables")
    check = workloads.WORKLOADS["dense_tables"].check
    assert check(case, result)
    for i in range(len(result)):
        if i == 2:  # the halves are the reference the round trips compare to
            continue
        tampered = list(result)
        tampered[i] = tampered[i] + 1 if isinstance(tampered[i], int) else (tampered[i][0] + 1, tampered[i][1])
        assert not check(case, tuple(tampered)), f"component {i} not checked"


def test_sparse_checker_flags_wrong_table_and_wrong_tree():
    case, (tree, table) = _first_result("sparse_functions")
    check = workloads.WORKLOADS["sparse_functions"].check
    assert check(case, (tree, table))
    assert not check(case, (tree, table ^ 1))
    other = natbdd.reduced_bdd(tree.nv, table ^ 1)
    assert not check(case, (other, table))


def test_rank_checker_flags_wrong_rank():
    case, ranks = _first_result("rank_stream")
    check = workloads.WORKLOADS["rank_stream"].check
    assert check(case, ranks) and len(ranks) == 2 * workloads.RANK_RUN
    assert not check(case, ranks[:-1] + [ranks[-1] + 1])
    assert not check(case, ranks[:-1])


def test_cli_checker_flags_wrong_text():
    case = workloads.cli_round(3, 0)[0]
    check = workloads.WORKLOADS["cli_pipes"].check
    assert check(case, case.expected)
    assert not check(case, case.expected.rstrip("\n"))
    assert not check(case, "0" + case.expected)


def test_timed_counts_wrong_results_and_exceptions_apart():
    w = workloads.WORKLOADS["rank_stream"]
    case = workloads.Case("k=1", ("reduced", 0), 0)
    assert run.timed(w, case, lambda: 0).status == "ok"
    assert run.timed(w, case, lambda: 1).status == "wrong"

    def boom() -> int:
        raise ValueError("bad input")

    sample = run.timed(w, case, boom)
    assert sample.status == "error" and "bad input" in sample.note


def test_any_failure_but_the_known_defect_is_incorrect():
    dense, cli = workloads.WORKLOADS["dense_tables"], workloads.WORKLOADS["cli_pipes"]
    ok = run.Sample("nv=12", 1.0, "ok", "")
    raised = run.timed(dense, workloads.Case("nv=16", (16, 0, 0), None), lambda: 1 // 0)
    assert raised.status == "error"
    assert run.is_correct(dense, [ok, ok], 0)
    assert not run.is_correct(dense, [ok, raised], 0)
    assert not run.is_correct(dense, [ok], 1)  # an oracle mismatch

    defect = run.Sample("nv=14 decimal", 1.0, "error", "",
                        "PipeFailed: exit 1: natbdd: error: Exceeds the limit (4300 digits)")
    assert run.is_correct(cli, [ok, defect], 0)
    assert not run.is_correct(dense, [ok, defect], 0)  # not a defect known for dense
    for other in (defect._replace(cls="nv=14"),  # the same error in another class
                  defect._replace(note="PipeFailed: exit 1: natbdd: error: out of memory"),
                  defect._replace(status="wrong", note="")):
        assert not run.is_correct(cli, [ok, other], 0), other


# ----------------------------------------------------------------- rounds


def _fast_workload() -> workloads.Workload:
    def make_round(seed: int, r: int) -> list[workloads.Case]:
        return [workloads.Case("k=1", (r, i), r) for i in range(3)]

    def ops(nb, ctx, cases):
        for case in cases:
            yield case, lambda case=case: case.inputs[0]

    return workloads.Workload("fast", make_round, ops, lambda case, result: result == case.expected, 0)


def test_measure_runs_between_min_and_max_rounds():
    w, ref = _fast_workload(), run.Reference(lambda: 1.0, 1.0, per_op=True)
    samples, rounds, _ = run.measure(w, None, None, 1, 0.0, ref)
    assert rounds == run.MIN_ROUNDS and len(samples) == 3 * run.MIN_ROUNDS
    samples, rounds, _ = run.measure(w, None, None, 1, 1e9, ref)
    assert rounds == run.MAX_ROUNDS and all(s.status == "ok" for s in samples)


@pytest.mark.parametrize("per_op", [True, False])
def test_measure_rescales_by_the_references_between_ops(per_op):
    times = [1.0, 3.0, 5.0, 7.0, 9.0, 11.0, 13.0]  # one before the first op, one after each op
    ref_times = iter(times)
    samples, _, _ = run.measure(_fast_workload(), None, None, 1, 0.0,
                                run.Reference(lambda: next(ref_times), 2.0, per_op))
    assert len(samples) == len(times) - 1
    # the reference after an op is the one before the next
    assert [s.ref_ms for s in samples] == [2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
    for s in samples:
        assert s.norm_ms == pytest.approx(s.ms * 2.0 / (s.ref_ms if per_op else 7.0))


def _tail_class(name: str, rounds: int) -> str:
    """Size class of the tail op when each op takes ~2**size time units."""
    w = workloads.WORKLOADS[name]
    rng = random.Random(rounds)
    ok = []
    for r in range(rounds):
        for case, _ in w.ops(natbdd, None, w.make_round(5, r)):
            if w.known_defect and case.cls == w.known_defect[0]:
                continue  # fails at the seed, so out of the latency samples
            size = {"small": 0, "pair": 1}.get(case.cls)
            size = int(case.cls.split()[0].split("=")[1]) if size is None else size
            ok.append(((2 ** size) * rng.uniform(1.0, 1.5), case.cls))
    ok.sort()
    value, _, _ = run.tail([ms for ms, _ in ok])
    return next(cls for ms, cls in ok if ms == value)


@pytest.mark.parametrize("name, cls", [("dense_tables", "nv=14"), ("sparse_functions", "nv=15"),
                                       ("rank_stream", "k=7"), ("cli_pipes", "nv=14")])
def test_tail_class_does_not_depend_on_the_round_count(name, cls):
    assert {_tail_class(name, r) for r in range(run.MIN_ROUNDS, run.MAX_ROUNDS + 1)} == {cls}


# ----------------------------------------------------------------- set-up


def test_cold_setup_runs_in_a_fresh_process():
    src = Path(natbdd.__file__).resolve().parent.parent
    ctx = workloads.Context(python=run.sys.executable, env=dict(run.os.environ))
    seconds = run.cold_setup_s(workloads.WORKLOADS["dense_tables"], src, ctx, seed=1, repeats=1)
    assert 0 < seconds < ctx.timeout_s


# -------------------------------------------------------- expected trees


@pytest.mark.parametrize("nv", range(1, 9))
def test_expected_sparse_trees_match_the_library(nv):
    for k in range(nv):
        assert workloads.column_table(nv, k) == natbdd.var_tt(nv, k)
    choices = [("column", [k]) for k in range(nv)]
    for arity in range(2, min(nv, 6) + 1):
        for variables in itertools.islice(itertools.combinations(range(nv), arity), 6):
            choices += [("and", list(variables)), ("or", list(variables)), ("parity", list(variables))]
    choices += [("const", []), ("const", [])]
    for i, (kind, variables) in enumerate(choices):
        table, tree = workloads.sparse_function(kind, nv, variables, value=i % 2)
        assert workloads.tree_shape(natbdd.reduce(natbdd.plain_bdd(nv, table))) == (nv, tree), (kind, variables)


# ------------------------------------------------------------ statistics


@pytest.mark.parametrize("n", [11, 12, 50, 100, 9600])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    xs = [float(i) for i in range(1, n + 1)]
    value, pct, count = run.tail(xs)
    assert count == n
    assert sum(x > value for x in xs) == 10
    assert pct == pytest.approx(100.0 * (n - 10) / n)


def test_tail_with_too_few_samples_is_the_maximum():
    assert run.tail([1.0, 5.0, 3.0][:1]) == (1.0, 100.0, 1)
    assert run.tail([float(i) for i in range(10)]) == (9.0, 100.0, 10)


def test_end_to_end_reports_rescaled_times():
    at_nominal = run.Sample("nv=12", 30.0, "ok", "", norm_ms=30.0)
    half_speed = at_nominal._replace(ms=60.0)
    metrics, extra = run.end_to_end([at_nominal, half_speed], setup_s=1.0, rss=1.0)
    assert metrics["op_p50_ms"] == 30.0 and extra["wall_op_p50_ms"] == 45.0
    assert metrics["ops_per_s"] == pytest.approx(1000 / 30.0)


def test_reference_does_not_call_the_library():
    modules = [natbdd] + [__import__(f"natbdd.{m}", fromlist=["_"]) for m in tracing.LAYERS]
    _, tracer = run.traced(modules, run.reference)
    assert tracer.names and not tracer.fid
    assert run.reference_ms() > 0
    ctx = workloads.Context(python=run.sys.executable, env=dict(run.os.environ))
    for w in workloads.WORKLOADS.values():
        assert run.reference_for(w, ctx).time_ms() > 0


def test_slope_of_a_power_law():
    points = [(2.0 ** e, 3.0 * (2.0 ** e) ** 1.5) for e in range(10, 15)]
    assert tracing.slope(points) == pytest.approx(1.5)


# ------------------------------------------------------------------ inputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    make_round = workloads.WORKLOADS[name].make_round
    assert pickle.dumps(make_round(7, 2)) == pickle.dumps(make_round(7, 2))
    assert make_round(7, 2) != make_round(8, 2)


def test_cli_round_keeps_a_fixed_share_of_decimal_nv14():
    for r in range(3):
        cases = workloads.cli_round(5, r)
        assert len(cases) == 26
        assert sum(c.cls == "nv=14 decimal" for c in cases) == 2


# ------------------------------------------------------------------ tracer


def test_tracer_nests_spans_across_layers_and_keeps_zero_rows():
    modules = [natbdd] + [__import__(f"natbdd.{m}", fromlist=["_"]) for m in tracing.LAYERS]
    original = natbdd.bdd.bitmerge_unpair
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        natbdd.reduced_bdd(3, 42)
        natbdd.SCHEMES["cantor"][0](3, 4)
    finally:
        tracer.uninstall()
    assert natbdd.bdd.bitmerge_unpair is original
    rows = tracer.per_function()
    assert rows["bdd.reduced_bdd"]["calls"] == 1
    assert rows["bdd.plain_bdd"]["calls"] == 1
    assert rows["pairing.bitmerge_unpair"]["calls"] == 7
    assert rows["pairing.cantor_pair"]["calls"] == 1
    assert rows["ranking.nat2bdd"]["calls"] == 0
    assert all(row["self_ms"] >= 0 for row in rows.values())
    names = [tracer.names[f] for f in tracer.fid]
    root = names.index("bdd.reduced_bdd")
    assert tracer.parent[names.index("bdd.plain_bdd")] == root
    assert tracer.counts["bdd.reduce.nodes_in"] == 15
    walk = names.index("trace.count_nodes")
    assert tracer.parent[walk] == root  # the node count is its own span
    metrics = tracing.layer_metrics(rows, tracer.counts)
    assert metrics["ranking.enumerate_bdds.calls"] == 0
    assert metrics["pairing.cantor.calls"] == 1


def test_oracle_crosscheck_is_traced_apart_from_the_workload():
    modules = [natbdd] + [__import__(f"natbdd.{m}", fromlist=["_"]) for m in tracing.LAYERS]
    _, work = run.traced(modules, lambda: natbdd.reduced_bdd(3, 42))
    sample = workloads.oracle_sample(1, "dense_tables", count=2)
    mismatches, oracle = run.traced(modules, lambda: workloads.oracle_crosscheck(natbdd, sample))
    assert mismatches == 0
    assert work.per_function()["bdd.reduced_bdd"]["calls"] == 1
    assert work.per_function()["oracle.truth_table_of"]["calls"] == 0
    assert oracle.per_function()["oracle.truth_table_of"]["calls"] == 4
    assert oracle.per_function()["bdd.reduced_bdd"]["calls"] == 2
