"""The cross-validation driver: four columns of the same multiplicities.

For every composition mu of |lam| into n parts, the weight multiplicity
of conjugate(lam) at mu is computed as a Kostka number, as a hom space
dimension in the exterior-power bimodule and as the leading coefficient
of a finite-field point-count polynomial: three independent routes.  The
fourth column, the lattice-model cycle count, is derived from character
data and is not independent evidence.  Every route works once per S_n
orbit of mu (weights.orbits), at the sorted mu; the hom spaces and the
point counts certify every other mu against it, and the symmetric
Kostka and lattice counts are copied to it.  The layers are reached
through their module attributes (characters.kostka, skewhowe.hom_dims,
...), so a wrapper installed on one of them sees every call.
"""

from __future__ import annotations

from collections import namedtuple

from . import characters, lattice, skewhowe, springercount
from .errors import (
    InvariantViolation,
    ResourceLimitError,
    WeylworksError,
    max_dimension,
)
from .weights import as_partition, conjugate, orbits


class CrossvalRow(
    namedtuple("CrossvalRow", "mu kostka skewhowe springer lattice_mv")
):
    __slots__ = ()

    @property
    def match(self) -> bool:
        return self.kostka == self.skewhowe == self.springer == self.lattice_mv


class CrossvalReport(namedtuple("CrossvalReport", "lam n m rows")):
    __slots__ = ()

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
    """Compare three independent computations of the same multiplicities,
    and a fourth column derived from character data.

    For every composition mu of |lam| into n parts, the Kostka number
    kostka(conjugate(lam), mu) is computed combinatorially, as the hom
    space dimension inside the exterior-power bimodule, and as the
    leading coefficient of the finite-field point-count polynomial for
    Jordan type lam.  The lattice_mv column is the weight multiplicity
    of conjugate(lam) at mu read from its character, so it is not
    independent evidence.  The four never disagree unless something is
    broken; the report keeps all values so a disagreement is visible
    rather than asserted away.

    The hom space dimensions come first, from one skewhowe.hom_dims
    call: one exact elimination per S_n orbit of mu (weights.orbits), at
    the sorted mu, and one walk per orbit that enumerates every mu's
    slice already carried into the sorted mu's rows, each certified
    equal to the sorted mu's slice.  The
    other routes then walk the same orbits: kostka, point_count_table
    (counts at its primes and their fit) and mv_cycle_count run once at
    each sorted mu, and every other mu's own count_polynomial must equal
    the table's whole polynomial or InvariantViolation is raised.  No
    check is lost: the default primes depend only on cap and the degree,
    both symmetric in the jumps, and Kostka numbers do not depend on the
    order of mu.  Each row takes its orbit's kostka and lattice_mv and
    its own polynomial's leading coefficient.  A route's error is
    re-raised as its own class.  The answer's size and the tableau guard
    are checked before anything is built.
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
        raise type(err)(
            f"cross-validation failed in the skew Howe route: {err}"
        ) from err
    rows = dict.fromkeys(hom_dims)
    for rep, members in orbits(total, n).items():
        mu = rep
        try:
            combinatorial = characters.kostka(shape_conj, rep, size_guard=size_guard)
            table = springercount.point_count_table(shape, rep, n).coefficients
            cycles = lattice.mv_cycle_count(shape_conj, rep, n, size_guard=size_guard)
            for mu in members:
                poly = table if mu == rep else springercount.count_polynomial(shape, mu, n)
                if poly != table:
                    raise InvariantViolation(
                        f"point-count polynomial {poly} differs from "
                        f"{table} at the rearrangement {rep}"
                    )
                rows[mu] = CrossvalRow(
                    mu=mu,
                    kostka=combinatorial,
                    skewhowe=hom_dims[mu],
                    springer=poly[-1],
                    lattice_mv=cycles,
                )
        except WeylworksError as err:
            raise type(err)(f"cross-validation failed at mu={mu}: {err}") from err
    return CrossvalReport(lam=shape, n=n, m=m, rows=tuple(rows.values()))
