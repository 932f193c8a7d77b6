"""Characters of irreducible gl(n) modules via tableau combinatorics.

The weight multiplicity of mu in the irreducible with highest weight
lambda is a Kostka number: the number of semistandard tableaux (rows
weakly increase, columns strictly increase) of shape lambda and content
mu.  The tableaux are counted, not listed: the cells holding one entry
form a horizontal strip, so one forward pass over the entries, keeping
{sub-shape: number of ways}, gives the count (_count_tableaux).  kostka
is that count.  It does not depend on the order of the content, so
crossval asks for it once per S_n orbit, and character_table counts
each dominant content mu below lambda once and copies the value to
every rearrangement of mu (the contents are the partitions from
weights.partitions that lambda dominates); dim_irrep is the table's
total.
Highest weights with negative entries are handled by the determinant
twist: shifting every entry of lambda and mu by the same constant does
not change the multiplicity, so everything reduces to partition shapes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from math import comb

from .errors import ResourceLimitError, max_dimension
from .weights import (
    WeightVec, as_partition, dominance_leq, is_dominant, pad, partitions
)

DEFAULT_SIZE_GUARD = 12


def check_size(shape, size_guard: int | None = DEFAULT_SIZE_GUARD) -> None:
    """Refuse a tableau count of shape when |shape| exceeds the guard."""
    if size_guard is not None and sum(shape) > size_guard:
        raise ResourceLimitError(
            f"a tableau count for |shape| = {sum(shape)} exceeds the guard "
            f"{size_guard}; raise it with --size-guard (size_guard= in the library)"
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
    check_size(shape, size_guard)
    return _count_tableaux(shape, content)


def _horizontal_strips(nu, shape, size, floor):
    """Sub-shapes of shape obtained from nu by adding a horizontal strip of
    size cells, with row i ending at least at floor[i].

    A horizontal strip has at most one cell per column, so row i may grow
    to the old length of row i - 1 and no further.  Only the rows with a
    choice are branched on, one at a time from a work list (no recursion,
    so a shape with thousands of rows is fine); the room left in the
    later rows prunes every choice that cannot reach the required size.
    """
    lo = [max(a, b) for a, b in zip(nu, floor)]
    hi = [shape[0]] + [min(a, b) for a, b in zip(shape[1:], nu)]
    if any(a > b for a, b in zip(lo, hi)):
        return []
    free = [(i, b - a) for i, (a, b) in enumerate(zip(lo, hi)) if b > a]
    room = [0] * (len(free) + 1)  # room[k]: cells the rows free[k:] can take
    for k in range(len(free) - 1, -1, -1):
        room[k] = room[k + 1] + free[k][1]
    found = []
    work = [((), size - sum(lo) + sum(nu))]
    while work:
        takes, left = work.pop()
        k = len(takes)
        if k == len(free):
            if left == 0:
                new = lo[:]
                for (i, _), t in zip(free, takes):
                    new[i] += t
                found.append(tuple(new))
            continue
        for t in range(max(0, left - room[k + 1]), min(left, free[k][1]) + 1):
            work.append((takes + (t,), left - t))
    return found


def _count_tableaux(shape, content) -> int:
    """Number of semistandard tableaux of a partition shape and content.

    The count does not depend on the order of the content, so it is
    taken over the nonzero parts largest first; nothing is cached, and
    the callers' guards run before this, on every call.
    """
    parts = sorted((x for x in content if x), reverse=True)
    return _count_chains(tuple(shape), tuple(parts))


def _count_chains(shape: tuple[int, ...], parts: tuple[int, ...]) -> int:
    """Number of semistandard tableaux of shape whose entries 1, 2, ...
    occur parts[0], parts[1], ... times.

    The cells holding entry v form a horizontal strip of parts[v-1]
    cells, so a tableau is a chain of sub-shapes () = nu_0 <= nu_1 <= ...
    <= nu_k = shape, each a horizontal strip over the last.  One forward
    pass over the entries carries {sub-shape: number of chains}.  With r
    entries still to place, the rest of shape / nu is r horizontal
    strips, so its columns have at most r cells: row i of nu must reach
    shape[i + r], which prunes every sub-shape that cannot be completed.
    """
    rows = len(shape)
    states = {(0,) * rows: 1}
    for done, size in enumerate(parts):
        left = len(parts) - done - 1
        floor = [shape[i + left] if i + left < rows else 0 for i in range(rows)]
        grown: dict[tuple[int, ...], int] = {}
        for nu, ways in states.items():
            for new in _horizontal_strips(nu, shape, size, floor):
                grown[new] = grown.get(new, 0) + ways
        states = grown
    return states.get(shape, 0)


def _distinct_permutations(values):
    """Each distinct rearrangement of values once, in lexicographic order
    (the next-permutation rule, so repeated entries cost nothing)."""
    perm = sorted(values)
    while True:
        yield tuple(perm)
        i = len(perm) - 2
        while i >= 0 and perm[i] >= perm[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(perm) - 1
        while perm[j] <= perm[i]:
            j -= 1
        perm[i], perm[j] = perm[j], perm[i]
        perm[i + 1:] = reversed(perm[i + 1:])


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


def _weight_count(part, n: int) -> int:
    """Distinct rearrangements of part padded with zeros to length n."""
    count, left = 1, n
    for k in Counter(part).values():
        count *= comb(left, k)
        left -= k
    return count


def character_table(
    lam, n: int, *, size_guard: int | None = DEFAULT_SIZE_GUARD
) -> CharacterTable:
    """All weights of the irreducible with highest weight lam, with
    multiplicity.  More than WEYLWORKS_MAX_DIM weights are refused before
    any is built: the count of each dominated content is summed first."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n < 1:
        raise ValueError("rank must be at least 1")
    lam = pad(lam, n) if len(lam) < n else tuple(int(x) for x in lam)
    if len(lam) != n:
        raise ValueError(f"highest weight {lam} does not fit rank {n}")
    shape, c = _twist(lam)
    check_size(shape, size_guard)
    cap = max_dimension()
    contents, total = [], 0
    for part in partitions(sum(shape), max_parts=n, max_part=max(shape, default=0)):
        width = max(len(part), len(shape))  # not n: a rank may be 10^6
        if dominance_leq(pad(part, width), pad(shape, width)):
            contents.append(part)
            total += _weight_count(part, n)
            if total > cap:
                raise ResourceLimitError(
                    f"the character table has more than {cap} weights, "
                    "the WEYLWORKS_MAX_DIM guard; raise it if intended"
                )
    entries = {}
    for part in contents:
        count = _count_tableaux(shape, part)
        for weight in _distinct_permutations(pad(part, n)):
            entries[tuple(x - c for x in weight)] = count
    return CharacterTable(lam=lam, n=n, entries=entries)
