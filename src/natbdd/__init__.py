"""Natural numbers as truth tables, with BDD encodings and rank bijections.

A natural number doubles as the truth table of a boolean function: bit p
holds the output on row p.  On top of that identification this package
provides pairing bijections between pairs of naturals and naturals,
construction and reduction of binary decision trees, boolean evaluation
that inverts the construction, and a ranking of all such trees onto the
naturals.
"""

from .bdd import Bdd, Ite, Leaf, Node, ev, plain_bdd, plain_inverse_bdd, reduce, reduced_bdd
from .oracle import row_assignment, semantic_eval, truth_table_of
from .pairing import (
    SCHEMES,
    bitmerge_pair,
    bitmerge_unpair,
    cantor_pair,
    cantor_unpair,
    odd_part,
    pepis_pair,
    pepis_unpair,
    two_adic_valuation,
)
from .ranking import (
    RankPair,
    bdd2nat,
    bsum,
    enumerate_bdds,
    nat2bdd,
    nat2plain_bdd,
    plain_bdd2nat,
    to_bsum,
)
from .truthtab import (
    DEFAULT_MAX_VARS,
    all_ones_mask,
    ite_tt,
    shannon_fuse,
    shannon_split,
    var_tt,
)

__version__ = "0.1.0"

__all__ = [
    "Bdd",
    "Ite",
    "Leaf",
    "Node",
    "RankPair",
    "SCHEMES",
    "DEFAULT_MAX_VARS",
    "all_ones_mask",
    "bdd2nat",
    "bitmerge_pair",
    "bitmerge_unpair",
    "bsum",
    "cantor_pair",
    "cantor_unpair",
    "enumerate_bdds",
    "ev",
    "ite_tt",
    "nat2bdd",
    "nat2plain_bdd",
    "odd_part",
    "pepis_pair",
    "pepis_unpair",
    "plain_bdd",
    "plain_bdd2nat",
    "plain_inverse_bdd",
    "reduce",
    "reduced_bdd",
    "row_assignment",
    "semantic_eval",
    "shannon_fuse",
    "shannon_split",
    "to_bsum",
    "truth_table_of",
    "two_adic_valuation",
    "var_tt",
]
