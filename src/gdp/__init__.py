"""Decompositions of generalized Dyck paths and Kostka-cone lattice points."""

from .catalan import (
    BudgetExceededError,
    Decomposition,
    ParseError,
    RunProfile,
    SignedList,
    complement,
    cost,
    is_generalized_catalan,
    is_valid_decomposition,
    run_profile,
    sublist,
    width,
)
from .kostka import (
    ColumnSplit,
    KostkaIrreducible,
    KostkaPair,
    Partition,
    column_vector,
    common_reduce,
    conjugate,
    dominates,
    restrict_columns,
    split_pair,
)
from .oracle import (
    enumerate_hilbert_basis,
    kostka_reducible_bruteforce,
    reducible_bruteforce,
)
from .reducer import (
    Irreducible,
    ReduceOutcome,
    reduce,
)
from .render import path_points, render_svg
from .staircase import GreedyPermutation, build_pi

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ColumnSplit",
    "Decomposition",
    "GreedyPermutation",
    "Irreducible",
    "KostkaIrreducible",
    "KostkaPair",
    "ParseError",
    "Partition",
    "ReduceOutcome",
    "RunProfile",
    "SignedList",
    "build_pi",
    "column_vector",
    "common_reduce",
    "complement",
    "conjugate",
    "cost",
    "dominates",
    "enumerate_hilbert_basis",
    "is_generalized_catalan",
    "is_valid_decomposition",
    "kostka_reducible_bruteforce",
    "path_points",
    "reduce",
    "reducible_bruteforce",
    "render_svg",
    "restrict_columns",
    "run_profile",
    "split_pair",
    "sublist",
    "width",
]
