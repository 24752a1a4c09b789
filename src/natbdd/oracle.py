"""Pointwise brute-force evaluation, independent of the bitvector path.

:func:`truth_table_of` rebuilds a tree's truth table one assignment at a
time by walking the tree, touching none of the mask arithmetic that
:func:`natbdd.bdd.ev` relies on.  It exists to cross-check that path.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .bdd import Bdd, Leaf, Node
from .truthtab import DEFAULT_MAX_VARS, check_var_count, count_text

Assignment = Sequence[int]


def semantic_eval(b: Bdd, assignment: Assignment) -> int:
    """Output bit of ``b`` on one assignment (``assignment[k]`` = variable k)."""
    if len(assignment) != b.nv:
        raise ValueError(
            f"assignment has {count_text(len(assignment), 'value')} for {count_text(b.nv, 'variable')}"
        )
    node: Node = b.root
    while not isinstance(node, Leaf):
        node = node.high if assignment[node.var] else node.low
    return node.bit


def row_assignment(nv: int, row: int) -> tuple[int, ...]:
    """The assignment occupying truth-table row ``row``.

    Variable k reads as the complement of bit (nv-1-k) of the row index.
    This is the unique convention consistent with the variable column
    encodings of :func:`natbdd.truthtab.var_tt`; the choice is pinned by
    the exhaustive oracle-agreement tests.
    """
    return tuple(1 - ((row >> (nv - 1 - k)) & 1) for k in range(nv))


def truth_table_of(b: Bdd, max_nv: int = DEFAULT_MAX_VARS) -> int:
    """Truth table of ``b`` computed by evaluating all 2**nv assignments."""
    check_var_count(b.nv, max_nv)
    tt = 0
    # the assignments in row order, as row_assignment gives them: variable
    # nv-1, the complement of the row's bit 0, changes fastest
    for row, assignment in enumerate(product((1, 0), repeat=b.nv)):
        if semantic_eval(b, assignment):
            tt |= 1 << row
    return tt
