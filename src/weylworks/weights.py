"""Weight-vector and partition combinatorics for gl(n).

Weight vectors are plain tuples of integers of some fixed length n.
Partitions are weakly decreasing tuples of nonnegative integers stored
without trailing zeros; any operation that needs a fixed rank takes n
explicitly and pads.  Permutations use one-line notation and are
0-indexed: ``w[i]`` is the image of position ``i``.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Iterator, Sequence

from .errors import check_dimension

WeightVec = tuple[int, ...]
Partition = tuple[int, ...]


def as_partition(entries: Iterable[int]) -> Partition:
    """Validate and normalize a partition, stripping trailing zeros.

    >>> as_partition([3, 1, 0, 0])
    (3, 1)
    """
    p = tuple(map(int, entries))
    if p and min(p) < 0:
        raise ValueError(f"partition entries must be nonnegative, got {p}")
    if not is_dominant(p):
        raise ValueError(f"partition entries must be weakly decreasing, got {p}")
    zeros = next((i for i, x in enumerate(reversed(p)) if x), len(p))
    return p[:len(p) - zeros]


def is_dominant(mu: Sequence[int]) -> bool:
    """True iff the entries are weakly decreasing (negative entries allowed)."""
    return all(map(operator.ge, mu, mu[1:]))


def pad(mu: Sequence[int], n: int) -> WeightVec:
    """Extend with trailing zeros to length n.

    n is checked against the WEYLWORKS_MAX_DIM guard first, so a huge
    rank is refused before n zeros are built.
    """
    check_dimension(n)
    if len(mu) > n:
        raise ValueError(f"cannot pad length-{len(mu)} vector to length {n}")
    return tuple(mu) + (0,) * (n - len(mu))


def weight_sum(a: Sequence[int], b: Sequence[int]) -> WeightVec:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def weight_diff(a: Sequence[int], b: Sequence[int]) -> WeightVec:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def simple_root(i: int, n: int) -> WeightVec:
    """The i-th simple root e_i - e_{i+1} of gl(n), with 0 <= i <= n-2."""
    if not 0 <= i <= n - 2:
        raise ValueError(f"simple root index {i} out of range for n={n}")
    return tuple(1 if j == i else -1 if j == i + 1 else 0 for j in range(n))


def dominance_leq(mu: Sequence[int], lam: Sequence[int]) -> bool:
    """True iff lam - mu is a nonnegative integer sum of simple roots.

    Equivalently, every partial sum of lam - mu is nonnegative and the
    total is zero.

    >>> dominance_leq((1, 1, 1), (2, 1, 0))
    True
    >>> dominance_leq((2, 1), (1, 2))
    False
    """
    if len(mu) != len(lam):
        raise ValueError(f"length mismatch: {len(mu)} vs {len(lam)}")
    run = 0
    for a, b in zip(lam, mu):
        run += a - b
        if run < 0:
            return False
    return run == 0


def height(diff: Sequence[int]) -> int:
    """Total number of simple roots in diff, counted with multiplicity.

    The argument must lie in the nonnegative root cone (all partial sums
    nonnegative, total zero), else ValueError.
    """
    partial = 0
    total = 0
    for x in diff[:-1]:
        partial += x
        if partial < 0:
            raise ValueError(f"{tuple(diff)} is not a nonnegative sum of simple roots")
        total += partial
    if partial + diff[-1] != 0:
        raise ValueError(f"{tuple(diff)} is not a nonnegative sum of simple roots")
    return total


def conjugate(nu: Iterable[int]) -> Partition:
    """Transpose of the Young diagram.

    >>> conjugate((3, 1))
    (2, 1, 1)
    >>> conjugate(())
    ()
    """
    p = as_partition(nu)
    if not p:
        return ()
    check_dimension(p[0])  # the transpose has p[0] parts
    return tuple(sum(1 for part in p if part >= i) for i in range(1, p[0] + 1))


def weyl_permute(w: Sequence[int], mu: Sequence[int]) -> WeightVec:
    """Permute entries: result[i] = mu[w[i]].

    >>> weyl_permute((1, 2, 0), (2, 1, 0))
    (1, 0, 2)
    """
    n = len(mu)
    if len(w) != n or sorted(w) != list(range(n)):
        raise ValueError(f"{tuple(w)} is not a 0-indexed permutation of length {n}")
    return tuple(mu[w[i]] for i in range(n))


def partitions(
    total: int, max_parts: int | None = None, max_part: int | None = None
) -> Iterator[Partition]:
    """Yield partitions of ``total`` in descending lexicographic order.

    Iterative: each step lowers the rightmost part that can still be
    lowered by one and refills the tail greedily with the largest parts
    allowed, so the depth of the work does not grow with ``total``.
    """
    if total < 0:
        raise ValueError("total must be nonnegative")
    cap = total if max_part is None else min(max_part, total)
    nparts = total if max_parts is None else max_parts
    if total == 0:
        yield ()
        return
    if cap < 1 or total > cap * nparts:
        return
    part: list[int] = []
    _greedy_fill(part, total, cap)
    while True:
        yield tuple(part)
        # part[i] -> part[i] - 1 works iff the rest fits in the slots after i
        rest = 0
        for i in range(len(part) - 1, -1, -1):
            v = part[i]
            rest += v
            if v > 1 and rest - (v - 1) <= (v - 1) * (nparts - i - 1):
                break
        else:
            return
        del part[i:]
        part.append(v - 1)
        _greedy_fill(part, rest - (v - 1), v - 1)


def _greedy_fill(part: list[int], remaining: int, largest: int) -> None:
    """Append the largest-first parts of at most ``largest`` summing to remaining."""
    q, r = divmod(remaining, largest)
    part.extend([largest] * q)
    if r:
        part.append(r)


def compositions(total: int, parts: int) -> Iterator[WeightVec]:
    """Yield all length-``parts`` tuples of nonnegative integers summing to
    ``total``, in descending lexicographic order.

    Iterative: each step moves one unit from the rightmost nonzero entry
    before the last to its right neighbour, which then takes all that
    follows it.  parts is checked against the WEYLWORKS_MAX_DIM guard.
    """
    if parts < 0 or total < 0:
        raise ValueError("arguments must be nonnegative")
    check_dimension(parts)
    if parts == 0:
        if total == 0:
            yield ()
        return
    comp = [0] * parts
    comp[0] = total
    while True:
        yield tuple(comp)
        i = parts - 2
        while i >= 0 and not comp[i]:
            i -= 1
        if i < 0:
            return
        tail = comp[-1] + 1
        comp[-1] = 0
        comp[i] -= 1
        comp[i + 1] = tail


def orbits(total: int, parts: int) -> dict[WeightVec, list[WeightVec]]:
    """The S_parts orbits of compositions(total, parts): each sorted rep,
    in order of first appearance, maps to its members in compositions
    order, the rep (the largest) first.

    >>> orbits(2, 2)
    {(2, 0): [(2, 0), (0, 2)], (1, 1): [(1, 1)]}
    """
    found: dict[WeightVec, list[WeightVec]] = {}
    for mu in compositions(total, parts):
        found.setdefault(tuple(sorted(mu, reverse=True)), []).append(mu)
    return found
