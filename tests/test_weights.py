import itertools

import pytest
from hypothesis import given, strategies as st

from weylworks.weights import (
    as_partition,
    compositions,
    conjugate,
    dominance_leq,
    height,
    is_dominant,
    orbits,
    pad,
    partitions,
    weyl_permute,
)


@st.composite
def partition_strategy(draw, max_size=10):
    total = draw(st.integers(min_value=0, max_value=max_size))
    parts = []
    cap = total
    while total > 0:
        p = draw(st.integers(min_value=1, max_value=cap))
        parts.append(p)
        cap = min(cap, p)
        total -= p
    return tuple(parts)


def test_dominance_basic():
    assert dominance_leq((1, 1, 1), (2, 1, 0))
    assert dominance_leq((2, 1, 0), (2, 1, 0))
    assert not dominance_leq((2, 1), (1, 2))
    assert not dominance_leq((3, 0), (2, 0))  # different total


def test_dominance_length_mismatch():
    with pytest.raises(ValueError):
        dominance_leq((1, 1), (2, 1, 0))


def test_dominance_is_partial_order_on_small_partitions():
    for total in range(7):
        parts = [pad(p, total) for p in partitions(total)]
        for a in parts:
            assert dominance_leq(a, a)
        for a, b in itertools.permutations(parts, 2):
            if dominance_leq(a, b) and dominance_leq(b, a):
                assert a == b
        for a, b, c in itertools.product(parts, repeat=3):
            if dominance_leq(a, b) and dominance_leq(b, c):
                assert dominance_leq(a, c)


def test_height_values():
    assert height((1, 0, -1)) == 2
    assert height((0, 0, 0)) == 0
    assert height((2, -2)) == 2


def test_height_rejects_outside_cone():
    with pytest.raises(ValueError):
        height((-1, 1))
    with pytest.raises(ValueError):
        height((1, 0))  # nonzero total


def test_height_positive_and_additive():
    parts = [pad(p, 4) for p in partitions(4)]
    for mu, lam in itertools.permutations(parts, 2):
        if dominance_leq(mu, lam):
            diff = tuple(a - b for a, b in zip(lam, mu))
            assert height(diff) >= 1
    # additivity along a chain (1,1,1,1) <= (2,1,1,0) <= (4,0,0,0)
    a, b, c = (1, 1, 1, 1), (2, 1, 1, 0), (4, 0, 0, 0)
    d1 = tuple(x - y for x, y in zip(b, a))
    d2 = tuple(x - y for x, y in zip(c, b))
    d3 = tuple(x - y for x, y in zip(c, a))
    assert height(d1) + height(d2) == height(d3)


def test_conjugate_values():
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate((4,)) == (1, 1, 1, 1)
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate(()) == ()


@given(partition_strategy())
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


def test_weyl_permute():
    assert weyl_permute((0, 1), (3, 0)) == (3, 0)
    assert weyl_permute((1, 0), (3, 0)) == (0, 3)
    assert weyl_permute((1, 2, 0), (2, 1, 0)) == (1, 0, 2)


def test_weyl_permute_rejects_bad_input():
    with pytest.raises(ValueError):
        weyl_permute((0, 1), (1, 2, 3))
    with pytest.raises(ValueError):
        weyl_permute((0, 0), (1, 2))


def test_partitions_enumeration():
    assert list(partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions(3, max_parts=2)) == [(3,), (2, 1)]
    assert list(partitions(4, max_part=2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions(0)) == [()]


def reference_partitions(total, max_parts=None, max_part=None):
    """The recursive enumerator that weights.partitions replaced."""
    cap = total if max_part is None else min(max_part, total)
    nparts = total if max_parts is None else max_parts

    def rec(remaining, largest, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0 or largest == 0:
            return
        for first in range(min(largest, remaining), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(total, cap, nparts)


def reference_compositions(total, parts):
    """The recursive enumerator that weights.compositions replaced."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in reference_compositions(total - first, parts - 1):
            yield (first,) + rest


def test_partitions_match_the_recursive_reference():
    bounds = [None, 0, 1, 2, 3, 5, 12]
    for total in range(13):
        for max_parts in bounds:
            for max_part in bounds:
                assert list(partitions(total, max_parts, max_part)) == list(
                    reference_partitions(total, max_parts, max_part)
                ), (total, max_parts, max_part)


def test_compositions_match_the_recursive_reference():
    for total in range(8):
        for parts in range(7):
            assert list(compositions(total, parts)) == list(
                reference_compositions(total, parts)
            ), (total, parts)


def test_orbits_partition_the_compositions_in_their_order():
    for total in range(7):
        for parts in range(6):
            order = list(compositions(total, parts))
            position = {mu: i for i, mu in enumerate(order)}
            found = orbits(total, parts)
            members = [mu for group in found.values() for mu in group]
            assert sorted(members, key=position.get) == order, (total, parts)
            assert [group[0] for group in found.values()] == sorted(
                found, key=position.get
            )
            for rep, group in found.items():
                assert rep == group[0] and is_dominant(rep)
                assert [position[mu] for mu in group] == sorted(
                    position[mu] for mu in group
                )
                assert all(tuple(sorted(mu, reverse=True)) == rep for mu in group)


def test_enumerators_do_not_recurse_per_part():
    assert sum(1 for _ in compositions(1, 3000)) == 3000
    assert next(iter(compositions(2, 3000)))[:2] == (2, 0)
    assert list(partitions(3000, max_part=1)) == [(1,) * 3000]


def test_compositions_enumeration():
    out = list(compositions(3, 2))
    assert out == [(3, 0), (2, 1), (1, 2), (0, 3)]
    assert all(sum(c) == 3 for c in out)
    assert len(list(compositions(4, 3))) == 15


def test_as_partition_validation():
    assert as_partition([3, 1, 0, 0]) == (3, 1)
    with pytest.raises(ValueError):
        as_partition((1, 2))
    with pytest.raises(ValueError):
        as_partition((2, -1))


def test_pad_and_is_dominant():
    assert pad((2, 1), 4) == (2, 1, 0, 0)
    assert is_dominant((3, 1, 0))
    assert is_dominant((1, 0, -2))
    assert not is_dominant((0, 1))
    with pytest.raises(ValueError):
        pad((2, 1, 1), 2)


@given(partition_strategy(), st.permutations(range(4)))
def test_weyl_orbit_preserves_multiset(lam, perm):
    mu = (lam + (0, 0, 0, 0))[:4]
    assert sorted(weyl_permute(tuple(perm), mu)) == sorted(mu)
