import pytest

import natbdd.oracle
from natbdd.bdd import Bdd, Leaf, ev, plain_bdd, reduce, reduced_bdd
from natbdd.oracle import row_assignment, semantic_eval, truth_table_of
from natbdd.truthtab import var_tt


def test_semantic_eval_on_leaves():
    assert semantic_eval(Bdd(0, Leaf(1)), ()) == 1
    assert semantic_eval(Bdd(2, Leaf(0)), (1, 0)) == 0


def test_semantic_eval_walks_reduced_tree():
    b = reduced_bdd(3, 42)
    # x0=1, x1=1, x2=0 lands on the constant-true branch
    assert semantic_eval(b, (1, 1, 0)) == 1
    # any assignment with x2=1 hits the root's constant-false branch
    assert semantic_eval(b, (0, 0, 1)) == 0
    assert semantic_eval(b, (1, 1, 1)) == 0


def test_semantic_eval_length_mismatch():
    with pytest.raises(ValueError, match="^assignment has 1 value for 2 variables$"):
        semantic_eval(reduced_bdd(2, 3), (1,))
    with pytest.raises(ValueError, match="^assignment has 3 values for 2 variables$"):
        semantic_eval(reduced_bdd(2, 3), (1, 0, 1))
    with pytest.raises(ValueError, match="^assignment has 0 values for 1 variable$"):
        semantic_eval(reduced_bdd(1, 1), ())


def test_row_assignment_convention_pinned():
    assert [row_assignment(2, p) for p in range(4)] == [
        (1, 1), (1, 0), (0, 1), (0, 0),
    ]
    assert row_assignment(0, 0) == ()


def test_row_assignment_matches_variable_columns():
    # the convention is exactly the one under which variable k's value at
    # row p equals bit p of that variable's column encoding
    for nv in range(1, 5):
        for k in range(nv):
            column = var_tt(nv, k)
            for p in range(1 << nv):
                assert row_assignment(nv, p)[k] == (column >> p) & 1


def test_truth_table_of_evaluates_row_assignment_row_by_row(monkeypatch):
    # the oracle walks its rows without row_assignment, in the same order, so
    # the exhaustive agreement tests pin the convention above
    seen = []

    def recording_eval(b, assignment):
        seen.append(tuple(assignment))
        return 0

    monkeypatch.setattr(natbdd.oracle, "semantic_eval", recording_eval)
    for nv in range(7):
        seen.clear()
        assert truth_table_of(Bdd(nv, Leaf(0))) == 0
        assert seen == [row_assignment(nv, row) for row in range(1 << nv)]


def test_truth_table_of_examples():
    assert truth_table_of(Bdd(2, Leaf(0))) == 0
    assert truth_table_of(Bdd(2, Leaf(1))) == 15
    assert truth_table_of(plain_bdd(3, 42)) == 42
    assert truth_table_of(reduced_bdd(3, 42)) == 42


def test_truth_table_of_guard():
    with pytest.raises(ValueError):
        truth_table_of(Bdd(21, Leaf(0)))


def test_oracle_agrees_with_bitvector_evaluation():
    # the full nv <= 3 sweep is acceptance criterion 4
    for nv in range(3):
        for tt in range(1 << (1 << nv)):
            b = plain_bdd(nv, tt)
            assert truth_table_of(b) == ev(b) == tt


def test_reduce_preserves_pointwise_semantics():
    for nv in range(4):
        for tt in range(1 << (1 << nv)):
            b = plain_bdd(nv, tt)
            assert truth_table_of(reduce(b)) == truth_table_of(b)
