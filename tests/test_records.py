"""The nine result types are immutable named tuples, and importing the CLI
loads no dataclasses, inspect or typing."""

import subprocess
import sys
from pathlib import Path

import pytest

from weylworks import (
    BiModule,
    CharacterTable,
    CrossvalReport,
    CrossvalRow,
    Decomposition,
    ExplicitModule,
    HomSpace,
    LatticeSubspace,
    PointCountTable,
    build_bimodule,
    character_table,
    cross_validate,
    fixed_point,
)

SRC = Path(__file__).resolve().parents[1] / "src"

RECORDS = [
    (CharacterTable, ("lam", "n", "entries")),
    (CrossvalRow, ("mu", "kostka", "skewhowe", "springer", "lattice_mv")),
    (CrossvalReport, ("lam", "n", "m", "rows")),
    (ExplicitModule, ("n", "dim", "basis_weights", "E", "F")),
    (Decomposition, ("n", "multiplicities")),
    (LatticeSubspace, ("n", "D", "basis")),
    (BiModule, ("n", "m", "N")),
    (HomSpace, ("lam", "mu", "dim", "vectors", "slice_indices")),
    (PointCountTable, ("nu", "mu", "evaluations", "coefficients")),
]


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # -S keeps site and .pth preloads out: some installs import typing there
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import weylworks.cli; "
        "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.split() == []


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[c.__name__ for c, _ in RECORDS])
def test_record_contract(cls, fields):
    values = tuple(range(10, 10 + len(fields)))
    record = cls(*values)
    assert cls._fields == fields
    assert cls(**dict(zip(fields, values))) == record
    assert tuple(getattr(record, f) for f in fields) == values
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0
    shown = ", ".join(f"{f}={v}" for f, v in zip(fields, values))
    assert repr(record) == f"{cls.__name__}({shown})"


def test_records_equal_tuples_of_their_fields():
    assert BiModule(3, 3, 3) == build_bimodule(3, 3, 3) == (3, 3, 3)
    assert repr(build_bimodule(3, 3, 3)) == "BiModule(n=3, m=3, N=3)"
    assert BiModule(3, 3, 3)._replace(N=2) == BiModule(3, 3, 2)


def test_record_properties_and_methods():
    assert CrossvalRow((2, 1), 1, 1, 1, 1).match
    assert not CrossvalRow((2, 1), 1, 1, 0, 1).match
    good, bad = CrossvalRow((1, 1), 2, 2, 2, 2), CrossvalRow((1, 1), 2, 1, 2, 2)
    assert CrossvalReport((2,), 2, 2, (good,)).match
    assert not CrossvalReport((2,), 2, 2, (good, bad)).match
    report = cross_validate((2, 1), 3, 3)
    assert report.match and repr(report.rows[0]).startswith("CrossvalRow(mu=")

    table = PointCountTable((3, 1), (1, 1, 1, 1), ((2, 7),), (1, 2, 3))
    assert table.lam == (2, 1, 1)
    assert table.degree == 2 and table.leading_coefficient == 3

    small = CharacterTable((1, 0), 2, {(0, 1): 1, (1, 0): 1})
    assert small.dim() == 2
    assert small.sorted_entries() == [((1, 0), 1), ((0, 1), 1)]
    assert character_table((2, 1, 0), 3).dim() == 8

    sub = fixed_point((2, 1), 2)
    assert sub.dim == len(sub.basis) > 0
    assert LatticeSubspace.from_dict(sub.to_dict()) == sub

    assert BiModule(3, 3, 3).dim == 84
