"""Characters of irreducible gl(n) modules via tableau combinatorics.

The weight multiplicity of mu in the irreducible with highest weight
lambda is a Kostka number, computed here by backtracking over
semistandard fillings (rows weakly increase, columns strictly increase).
One backtracking, _ssyt_content_counts, serves every count: kostka bounds
each entry by its content, so only tableaux of that content are visited;
character_table (and dim_irrep, its total) leaves every entry unbounded.
Highest weights with negative entries are handled by the determinant
twist: shifting every entry of lambda and mu by the same constant does
not change the multiplicity, so everything reduces to partition shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceLimitError
from .weights import WeightVec, as_partition, is_dominant, pad

DEFAULT_SIZE_GUARD = 12


def _check_size(shape, size_guard):
    if size_guard is not None and sum(shape) > size_guard:
        raise ResourceLimitError(
            f"tableau enumeration for |shape| = {sum(shape)} exceeds the guard "
            f"{size_guard}; pass size_guard=None or a larger value to override"
        )


def kostka(lam, mu, *, size_guard: int | None = DEFAULT_SIZE_GUARD) -> int:
    """Number of semistandard tableaux of shape lam and content mu.

    lam must be a partition.  mu may be any integer vector: a size
    mismatch or a negative entry simply gives 0 (no tableau exists),
    which keeps summations over weight lattices clean.
    """
    shape = as_partition(lam)
    content = tuple(int(x) for x in mu)
    if any(x < 0 for x in content):
        return 0
    if sum(shape) != sum(content):
        return 0
    _check_size(shape, size_guard)
    return _ssyt_content_counts(shape, content).get(content, 0)


def _ssyt_content_counts(shape, budget) -> dict[tuple[int, ...], int]:
    """Content vector -> number of semistandard tableaux of the given
    shape in which entry v (1-based) occurs at most budget[v-1] times.

    Rows are filled left to right and top to bottom; a cell takes the
    values allowed by its left and upper neighbours that still have
    budget, so a tight budget enumerates exactly one content.
    """
    m = len(budget)
    table: dict[tuple[int, ...], int] = {}
    if not shape:
        table[(0,) * m] = 1
        return table
    if len(shape) > m:
        return table
    content = [0] * m

    def fill(r: int, prev_row: list[int]) -> None:
        if r == len(shape):
            key = tuple(content)
            table[key] = table.get(key, 0) + 1
            return
        width = shape[r]
        row = [0] * width

        def cell(j: int, lo: int) -> None:
            if j == width:
                fill(r + 1, row)
                return
            for v in range(max(lo, prev_row[j] + 1), m + 1):
                if content[v - 1] < budget[v - 1]:
                    content[v - 1] += 1
                    row[j] = v
                    cell(j + 1, v)
                    content[v - 1] -= 1

        cell(0, 1)

    fill(0, [0] * shape[0])
    return table


def _twist(lam) -> tuple[tuple[int, ...], int]:
    """Shift a weakly decreasing integer vector to a partition shape.

    Returns (shape, c) with shape = lam + c*(1,...,1) as a partition.
    """
    lam = tuple(int(x) for x in lam)
    if not lam:
        raise ValueError("highest weight must have length at least 1")
    if not is_dominant(lam):
        raise ValueError(f"highest weight must be weakly decreasing, got {lam}")
    c = max(0, -lam[-1])
    return as_partition(x + c for x in lam), c


def character(lam, mu, *, size_guard: int | None = DEFAULT_SIZE_GUARD) -> int:
    """Dimension of the mu weight space of the irreducible with highest
    weight lam (entries of lam may be negative; lengths must agree)."""
    lam = tuple(int(x) for x in lam)
    mu = tuple(int(x) for x in mu)
    if len(lam) != len(mu):
        raise ValueError(f"length mismatch: {lam} vs {mu}")
    shape, c = _twist(lam)
    shifted = tuple(x + c for x in mu)
    if any(x < 0 for x in shifted):
        return 0
    return kostka(shape, shifted, size_guard=size_guard)


def dim_irrep(lam, n: int, *, size_guard: int | None = DEFAULT_SIZE_GUARD) -> int:
    """Dimension of the irreducible gl(n) module with highest weight lam."""
    return character_table(lam, n, size_guard=size_guard).dim()


@dataclass(frozen=True)
class CharacterTable:
    """Full weight-multiplicity table of one irreducible gl(n) module."""

    lam: WeightVec
    n: int
    entries: dict[WeightVec, int]

    def dim(self) -> int:
        return sum(self.entries.values())

    def sorted_entries(self) -> list[tuple[WeightVec, int]]:
        """Entries ordered by descending weight (a dominance-compatible order)."""
        return sorted(self.entries.items(), key=lambda kv: kv[0], reverse=True)


def character_table(
    lam, n: int, *, size_guard: int | None = DEFAULT_SIZE_GUARD
) -> CharacterTable:
    """All weights of the irreducible with highest weight lam, with multiplicity."""
    lam = pad(lam, n) if len(lam) < n else tuple(int(x) for x in lam)
    if len(lam) != n:
        raise ValueError(f"highest weight {lam} does not fit rank {n}")
    shape, c = _twist(lam)
    _check_size(shape, size_guard)
    raw = _ssyt_content_counts(shape, [sum(shape)] * n)
    entries = {tuple(x - c for x in content): count for content, count in raw.items()}
    return CharacterTable(lam=lam, n=n, entries=entries)
