"""The contract of the package's value types, its public names, and what
importing the CLI costs: frozen, slotted values that compare, hash, print
and pickle by their fields, a fixed ``gdp.__all__``, and a ``gdp.cli``
import that loads no heavy standard modules."""
import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import gdp
from gdp.catalan import Decomposition, RunProfile, SignedList
from gdp.kostka import ColumnSplit, KostkaIrreducible, KostkaPair, Partition
from gdp.reducer import Irreducible
from gdp.staircase import GreedyPermutation

LAM, MU = Partition((2, 1)), Partition((1, 1, 1))
# The sides of the column split {3} of 5,3,1 / 3,3,2,1.
SIDES = (
    KostkaPair(Partition((1, 1)), Partition((1, 1)), r=4),
    KostkaPair(Partition((4, 2, 1)), Partition((2, 2, 2, 1)), r=4),
)

# (class, fields by keyword, a field to change, a different value for it, repr)
CASES = [
    (SignedList, dict(entries=(1, -1)), "entries", (2, -2),
     "SignedList(entries=(1, -1))"),
    (RunProfile,
     dict(runs=((1, 1, 1), (-1, 2, 2)), y=1, alphas=(1,), betas=(1,), cost=2),
     "cost", 3,
     "RunProfile(runs=((1, 1, 1), (-1, 2, 2)), y=1, alphas=(1,), betas=(1,), cost=2)"),
    (Decomposition, dict(part=frozenset({2, 5})), "part", frozenset({1}),
     "Decomposition(part=frozenset({2, 5}))"),
    (GreedyPermutation,
     dict(one_line=(1, 2), reordered=SignedList((1, -1)), running_sums=(1, 0)),
     "one_line", (2, 1),
     "GreedyPermutation(one_line=(1, 2), reordered=SignedList(entries=(1, -1)), "
     "running_sums=(1, 0))"),
    (Irreducible, dict(alpha1=2, beta1=1, basis="coprime"), "basis", "search",
     "Irreducible(alpha1=2, beta1=1, basis='coprime')"),
    (Partition, dict(parts=(2, 1)), "parts", (3,), "Partition(parts=(2, 1))"),
    (KostkaPair, dict(lam=LAM, mu=MU, r=3), "r", 4,
     "KostkaPair(lam=Partition(parts=(2, 1)), mu=Partition(parts=(1, 1, 1)), r=3)"),
    (ColumnSplit, dict(columns=frozenset({3}), sides=SIDES), "columns", frozenset({2}),
     "ColumnSplit(columns=frozenset({3}), sides=(KostkaPair(lam=Partition(parts=(1, 1)), "
     "mu=Partition(parts=(1, 1)), r=4), KostkaPair(lam=Partition(parts=(4, 2, 1)), "
     "mu=Partition(parts=(2, 2, 2, 1)), r=4)))"),
    (KostkaIrreducible,
     dict(alpha1=None, beta1=None, lam_rect=(1, 2), mu_rect=None, basis="single-column"),
     "lam_rect", (2, 1),
     "KostkaIrreducible(alpha1=None, beta1=None, lam_rect=(1, 2), mu_rect=None, "
     "basis='single-column')"),
]

# The records that build through the shared _Value constructor.
PLAIN_RECORDS = (RunProfile, GreedyPermutation, Irreducible, ColumnSplit,
                 KostkaIrreducible)


@pytest.mark.parametrize(
    "cls, fields, name, other, text", CASES, ids=[case[0].__name__ for case in CASES]
)
def test_value_contract(cls, fields, name, other, text):
    value = cls(**fields)
    # Equal fields give equal objects with equal hashes; a changed field does not.
    twin = cls(**fields)
    assert value == twin and hash(value) == hash(twin)
    assert value != cls(**{**fields, name: other})
    assert value != tuple(fields.values())
    # Positional construction and match patterns take the fields in order.
    assert cls(*fields.values()) == value
    assert cls.__match_args__ == tuple(fields)
    # Frozen: no field can be assigned or deleted.
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(value, field, other)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == text
    for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                   copy.copy(value)):
        assert type(copied) is cls and copied == value and repr(copied) == text
    # A call that Python would refuse for an explicit signature is refused:
    # an extra value, an unknown name, a field given by position and by name.
    first, *_ = fields
    with pytest.raises(TypeError):
        cls(*fields.values(), other)
    with pytest.raises(TypeError):
        cls(**fields, no_such_field=other)
    with pytest.raises(TypeError):
        cls(fields[first], **fields)
    # With the right count of values, a doubled field or an unknown name
    # still gets past the count check and is refused by name.
    *head, _ = fields.values()
    refused_by_name = "has no field" if cls in PLAIN_RECORDS else None
    with pytest.raises(TypeError, match=refused_by_name):
        cls(*head, no_such_field=other)
    if head:
        with pytest.raises(TypeError, match=refused_by_name):
            cls(*head, **{first: other})
    # A plain record has no default, so leaving any field out is refused;
    # only the four records that check or convert their input define __init__.
    assert ("__init__" in vars(cls)) == (cls not in PLAIN_RECORDS)
    if cls in PLAIN_RECORDS:
        for field in fields:
            with pytest.raises(TypeError):
                cls(**{k: v for k, v in fields.items() if k != field})


def test_column_split_compares_columns_only():
    split = ColumnSplit(frozenset({3}), SIDES)
    swapped = ColumnSplit(frozenset({3}), SIDES[::-1])
    assert split == swapped and hash(split) == hash(swapped)
    assert split != ColumnSplit(frozenset({2}), SIDES)


def test_cli_import_loads_no_heavy_modules():
    # Without site, the interpreter loads none of these at start-up, so any
    # that appear come from importing gdp.cli.
    script = (
        "import sys, json\n"
        "before = set(sys.modules)\n"
        "import gdp.cli\n"
        "new = set(sys.modules) - before\n"
        "heavy = ('dataclasses', 'inspect', 'ast', 'typing')\n"
        "print(json.dumps([m for m in heavy if m in new]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# The public surface: what a test alone calls lives in the tests.
PUBLIC_NAMES = [
    "BudgetExceededError", "ColumnSplit", "Decomposition", "GreedyPermutation",
    "Irreducible", "KostkaIrreducible", "KostkaPair", "ParseError", "Partition",
    "ReduceOutcome", "RunProfile", "SignedList", "build_pi", "column_vector",
    "common_reduce", "complement", "conjugate", "cost", "dominates",
    "enumerate_hilbert_basis", "is_generalized_catalan", "is_valid_decomposition",
    "kostka_reducible_bruteforce", "path_points", "reduce", "reducible_bruteforce",
    "render_svg", "restrict_columns", "run_profile", "split_pair", "sublist", "width",
]


def test_public_names():
    assert sorted(gdp.__all__) == PUBLIC_NAMES
    assert all(hasattr(gdp, name) for name in PUBLIC_NAMES)
    star = {}
    exec("from gdp import *", star)
    del star["__builtins__"]
    assert sorted(star) == PUBLIC_NAMES
