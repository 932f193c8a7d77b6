"""The cross-validation driver: four routes to the same multiplicities.

For every composition mu of |lam| into n parts, the weight multiplicity
of conjugate(lam) at mu is computed as a Kostka number, as a hom space
dimension in the exterior-power bimodule, as the leading coefficient of
a finite-field point-count polynomial and as a lattice-model cycle
count.  The layers are reached through their module attributes
(characters.kostka, skewhowe.hom_dims, ...), so a wrapper installed on
one of them sees every call.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import characters, lattice, skewhowe, springercount
from .errors import (
    InvariantViolation,
    ResourceLimitError,
    WeylworksError,
    max_dimension,
)
from .weights import as_partition, compositions, conjugate


@dataclass(frozen=True)
class CrossvalRow:
    mu: tuple[int, ...]
    kostka: int
    skewhowe: int
    springer: int
    lattice_mv: int

    @property
    def match(self) -> bool:
        return self.kostka == self.skewhowe == self.springer == self.lattice_mv


@dataclass(frozen=True)
class CrossvalReport:
    lam: tuple[int, ...]
    n: int
    m: int
    rows: tuple[CrossvalRow, ...]

    @property
    def match(self) -> bool:
        return all(row.match for row in self.rows)


def _check_answer_size(total: int, n: int, m: int) -> None:
    """Refuse a crossval answer of more than WEYLWORKS_MAX_DIM cells.

    It has one row per composition of total into n parts, C(total+n-1,
    n-1) of them, each counted as n + m cells (m also sizes the gl(m)
    weights built for every slice).  The binomial is a running product
    that stops as soon as the cells pass the cap, so a rank of 10^9 is
    refused in a few steps.
    """
    cap = max_dimension()
    width = n + m
    small, large = sorted((max(n - 1, 0), total))
    rows = 1
    for k in range(1, small + 1):
        if rows * width > cap:
            break
        rows = rows * (large + k) // k
    if rows * width > cap:
        raise ResourceLimitError(
            f"crossval answer has at least {rows * width} cells (rows x (n + m) = "
            f"{rows} x {width}), above the guard {cap}; raise it via "
            f"WEYLWORKS_MAX_DIM if intended"
        )


def cross_validate(
    lam, n: int, m: int, *, size_guard: int | None = characters.DEFAULT_SIZE_GUARD
) -> CrossvalReport:
    """Compare four independent computations of the same multiplicities.

    For every composition mu of |lam| into n parts, the Kostka number
    kostka(conjugate(lam), mu) is computed combinatorially, as the hom
    space dimension inside the exterior-power bimodule, as the leading
    coefficient of the finite-field point-count polynomial for Jordan
    type lam, and as the lattice-model cycle count for conjugate(lam).
    The four never disagree unless something is broken; the report keeps
    all values so a disagreement is visible rather than asserted away.

    The hom space dimensions come from skewhowe.hom_dims: one exact
    elimination per S_n orbit of mu, every other mu certified entry by
    entry.  The whole point-count polynomial, not only its leading
    coefficient, must be the same at every mu of one S_n orbit, or
    InvariantViolation is raised.  The answer's size and the tableau
    guard are checked before anything is built.
    """
    if n < 1 or m < 1:
        raise ValueError("both ranks must be at least 1")
    shape = as_partition(lam)
    if shape and shape[0] > n:
        raise ValueError(f"largest part of {shape} exceeds n={n}")
    if len(shape) > m:
        raise ValueError(f"{shape} has more than m={m} parts")
    total = sum(shape)
    _check_answer_size(total, n, m)
    shape_conj = conjugate(shape)
    characters.check_size(shape_conj, size_guard)
    bim = skewhowe.build_bimodule(n, m, total)
    try:
        hom_dims = skewhowe.hom_dims(bim, shape)
    except WeylworksError as err:
        raise WeylworksError(
            f"cross-validation failed in the skew Howe route: {err}"
        ) from err
    polys: dict[tuple[int, ...], tuple[int, ...]] = {}
    rows = []
    for mu in compositions(total, n):
        try:
            combinatorial = characters.kostka(shape_conj, mu, size_guard=size_guard)
            table = springercount.point_count_table(shape, mu, n)
            rep = tuple(sorted(mu, reverse=True))
            if polys.setdefault(rep, table.coefficients) != table.coefficients:
                raise InvariantViolation(
                    f"point-count polynomial {table.coefficients} differs from "
                    f"{polys[rep]} at the rearrangement {rep}"
                )
            cycles = lattice.mv_cycle_count(shape_conj, mu, n, size_guard=size_guard)
        except WeylworksError as err:
            raise WeylworksError(f"cross-validation failed at mu={mu}: {err}") from err
        rows.append(
            CrossvalRow(
                mu=mu,
                kostka=combinatorial,
                skewhowe=hom_dims[mu],
                springer=table.leading_coefficient,
                lattice_mv=cycles,
            )
        )
    return CrossvalReport(lam=shape, n=n, m=m, rows=tuple(rows))
