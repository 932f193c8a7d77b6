"""Character values against three independent oracles.

The package counts tableaux as chains of horizontal strips.  The Kostka
oracle here is a separate iterated-Pieri count, the reference below
enumerates tableau fillings one cell at a time (the backtracking the
package used before it counted strips), and the dimension oracle is the
Weyl product formula.  None of them shares code with the package.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylworks import characters
from weylworks.characters import (
    DEFAULT_SIZE_GUARD,
    _count_chains,
    character,
    character_table,
    dim_irrep,
    kostka,
)
from weylworks.errors import ResourceLimitError
from weylworks.weights import compositions, pad, partitions


def _add_horizontal_strips(shape, size, bound):
    """Partitions obtained from shape by adding a horizontal strip,
    staying entrywise below bound."""
    rows = len(bound)
    sh = list(shape) + [0] * (rows - len(shape))
    found = []

    def rec(r, rem, acc):
        if r == rows:
            if rem == 0:
                found.append(tuple(acc))
            return
        top = bound[r] if r == 0 else min(bound[r], sh[r - 1])
        for new_r in range(sh[r], top + 1):
            if new_r - sh[r] <= rem:
                rec(r + 1, rem - (new_r - sh[r]), acc + [new_r])

    rec(0, size, [])
    return found


def oracle_kostka(lam, mu):
    """Pieri-chain count of semistandard tableaux of shape lam, content mu."""
    lam = tuple(lam)
    if any(x < 0 for x in mu) or sum(mu) != sum(lam):
        return 0
    current = {(): 1}
    for part in mu:
        nxt = {}
        for shape, ways in current.items():
            for new in _add_horizontal_strips(shape, part, lam):
                key = tuple(x for x in new if x)
                nxt[key] = nxt.get(key, 0) + ways
        current = nxt
    return current.get(tuple(x for x in lam if x), 0)


def reference_content_counts(shape, budget):
    """Content vector -> number of semistandard tableaux of the given
    shape in which entry v (1-based) occurs at most budget[v-1] times.

    Rows are filled left to right and top to bottom; a cell takes the
    values allowed by its left and upper neighbours that still have
    budget, so a tight budget enumerates exactly one content.
    """
    m = len(budget)
    table = {}
    if not shape:
        table[(0,) * m] = 1
        return table
    if len(shape) > m:
        return table
    content = [0] * m

    def fill(r, prev_row):
        if r == len(shape):
            key = tuple(content)
            table[key] = table.get(key, 0) + 1
            return
        width = shape[r]
        row = [0] * width

        def cell(j, lo):
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


def oracle_weyl_dim(lam, n):
    """Weyl dimension formula for the highest weight lam padded to length n."""
    lam = pad(tuple(lam), n)
    num = den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def test_oracle_sanity():
    # frozen spot values for the oracle itself, worked by hand
    assert oracle_kostka((2, 1), (1, 1, 1)) == 2
    assert oracle_kostka((3,), (2, 1)) == 1
    assert oracle_kostka((2, 2), (1, 1, 1, 1)) == 2
    assert oracle_weyl_dim((2, 1, 0), 3) == 8
    assert oracle_weyl_dim((1,), 4) == 4


def test_kostka_pinned_values():
    assert kostka((3,), (2, 1)) == 1
    assert kostka((2, 1), (1, 1, 1)) == 2
    for mu in compositions(4, 3):
        assert kostka((4,), mu) == 1


def test_kostka_degenerate_inputs():
    assert kostka((2, 1), (1, 1)) == 0  # size mismatch is 0, not an error
    assert kostka((2, 1), (4, -1)) == 0
    assert kostka((), ()) == 1
    assert kostka((2, 1), (3,)) == 0


def test_kostka_matches_pieri_oracle():
    for total in range(7):
        for lam in partitions(total):
            for k in range(1, 5):
                table = character_table(pad(lam, k), k).entries if len(lam) <= k else {}
                for mu in compositions(total, k):
                    expected = oracle_kostka(lam, mu)
                    assert kostka(lam, mu) == expected, (lam, mu)
                    assert table.get(mu, 0) == expected, (lam, mu)


def test_character_pinned_values():
    assert character((1, 0, -1), (0, 0, 0)) == 2
    assert character((1, 0, -1), (1, 0, -1)) == 1
    assert character((-1, -1, -1), (-1, -1, -1)) == 1
    assert character((-1, -1, -1), (0, -1, -2)) == 0


def test_character_rejects_non_dominant():
    with pytest.raises(ValueError):
        character((0, 1), (1, 0))


def test_twist_invariance():
    for lam in partitions(5):
        lam3 = pad(lam, 3) if len(lam) <= 3 else None
        if lam3 is None:
            continue
        for mu in compositions(5, 3):
            base = kostka(lam3, mu)
            for c in range(4):
                shifted_lam = tuple(x + c for x in lam3)
                shifted_mu = tuple(x + c for x in mu)
                assert kostka(shifted_lam, shifted_mu, size_guard=None) == base


def test_weyl_symmetry():
    # character(lam, w mu) = character(lam, mu) for all w: as mu runs over
    # every composition, comparing against the sorted representative covers
    # the full S_n orbit of each weight.
    for n in (2, 3, 4):
        for total in range(7):
            for lam in partitions(total, max_parts=n):
                lam_n = pad(lam, n)
                for mu in compositions(total, n):
                    rep = tuple(sorted(mu, reverse=True))
                    assert character(lam_n, mu) == character(lam_n, rep)


def test_highest_weight_property():
    from weylworks.weights import dominance_leq

    for total in range(6):
        for lam in partitions(total, max_parts=3):
            lam3 = pad(lam, 3)
            assert character(lam3, lam3) == 1
            for mu in compositions(total, 3):
                if character(lam3, mu) != 0:
                    assert dominance_leq(mu, lam3)


def test_dim_irrep_pinned():
    for n in range(1, 5):
        for k in range(n + 1):
            omega = (1,) * k + (0,) * (n - k)
            assert dim_irrep(omega, n) == math.comb(n, k)
    assert dim_irrep((2, 1, 0), 3) == 8
    assert dim_irrep((3, 0), 2) == 4


def test_dim_irrep_matches_weyl_formula():
    for n in (2, 3, 4):
        for total in range(7):
            for lam in partitions(total, max_parts=n):
                assert dim_irrep(pad(lam, n), n) == oracle_weyl_dim(lam, n)


def test_character_table_sym_cube():
    table = character_table((3, 0), 2)
    assert table.entries == {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1}
    assert table.dim() == 4


def test_character_table_adjoint():
    table = character_table((1, 0, -1), 3)
    expected = {
        (1, 0, -1): 1,
        (1, -1, 0): 1,
        (0, 1, -1): 1,
        (0, -1, 1): 1,
        (-1, 1, 0): 1,
        (-1, 0, 1): 1,
        (0, 0, 0): 2,
    }
    assert table.entries == expected
    assert table.dim() == 8


def test_character_table_determinant():
    table = character_table((1, 1, 1), 3)
    assert table.entries == {(1, 1, 1): 1}


def test_character_table_invariants():
    for lam in [(2, 1, 0), (3, 1), (2, 2, 0)]:
        n = len(lam)
        table = character_table(lam, n)
        total = sum(lam)
        for mu, mult in table.entries.items():
            assert sum(mu) == total
            assert mult >= 1
            assert table.entries[tuple(sorted(mu, reverse=True))] == mult
        assert table.entries[lam] == 1
        assert table.dim() == dim_irrep(lam, n)


def test_size_guard():
    big = (DEFAULT_SIZE_GUARD + 1,)
    with pytest.raises(ResourceLimitError):
        kostka(big, big)
    assert kostka(big, big, size_guard=None) == 1
    assert kostka(big, big, size_guard=DEFAULT_SIZE_GUARD + 1) == 1


def test_counts_match_the_tableau_enumeration():
    for total in range(8):
        for lam in partitions(total):
            for n in range(1, 5):
                reference = reference_content_counts(lam, [total] * n)
                if len(lam) <= n:
                    assert character_table(pad(lam, n), n).entries == reference, (lam, n)
                for mu in compositions(total, n):
                    tight = reference_content_counts(lam, mu).get(mu, 0)
                    assert kostka(lam, mu) == tight == reference.get(mu, 0), (lam, mu)


@st.composite
def shuffled_contents(draw):
    lam = draw(st.sampled_from([p for t in range(1, 10) for p in partitions(t)]))
    parts = list(draw(st.sampled_from(list(partitions(sum(lam))))))
    parts += [0] * draw(st.integers(0, 3))
    return lam, tuple(draw(st.permutations(parts)))


@settings(max_examples=200, deadline=None)
@given(shuffled_contents())
def test_kostka_of_any_content_order_matches_the_enumeration(case):
    lam, mu = case
    assert kostka(lam, mu) == reference_content_counts(lam, mu).get(mu, 0)


@settings(max_examples=200, deadline=None)
@given(shuffled_contents())
def test_chain_count_does_not_depend_on_the_content_order(case):
    """crossval asks for one Kostka number per S_n orbit of the content,
    so the pass over the nonzero parts in their shuffled order must give
    kostka's count, which takes them largest first."""
    lam, mu = case
    shuffled = _count_chains(lam, tuple(x for x in mu if x))
    assert kostka(lam, mu) == shuffled
    assert kostka(lam, tuple(reversed(mu))) == shuffled


def test_kostka_keeps_the_guards():
    shape, content = (3, 2, 1), (2, 2, 2)
    assert kostka(shape, content, size_guard=None) == 2
    assert kostka(shape, (2, 0, 2, 2), size_guard=None) == 2
    assert kostka(shape, content, size_guard=6) == 2
    with pytest.raises(ResourceLimitError):
        kostka(shape, content, size_guard=5)
    with pytest.raises(ResourceLimitError):
        character(shape, content, size_guard=5)


@pytest.mark.parametrize("lam", [(10, 8, 6, 4, 2, 0), (8, 6, 4, 2, 0, 0)])
def test_dim_irrep_of_large_shapes(lam):
    # 14,348,907 and 1,791,153 tableaux: counted by strips, not listed
    assert dim_irrep(lam, 6, size_guard=None) == oracle_weyl_dim(lam, 6)


@pytest.mark.parametrize(
    "lam, n, weights",
    [((2,), 13, 13 + 78), ((1, 1), 15, 105), ((2, 1, 0, 0, -1), 5, 95), ((12,), 40, None)],
)
def test_character_table_is_counted_before_any_weight_is_built(
    monkeypatch, lam, n, weights
):
    """Each dominated content adds its number of rearrangements, a
    multinomial, before any weight is built: a table past the guard is
    refused without listing one rearrangement, and a table of exactly
    the guard's size is built.  (12,) at n = 40 has 40 + 40 * 39 + ...
    weights, past any guard of 1,000 after its second content."""
    built = weights or 1000
    monkeypatch.setenv("WEYLWORKS_MAX_DIM", str(built - 1))

    def refuse_to_list(values):
        raise AssertionError("a weight was built before the count refused")

    with monkeypatch.context() as patched:
        patched.setattr(characters, "_distinct_permutations", refuse_to_list)
        with pytest.raises(
            ResourceLimitError,
            match=rf"^the character table has more than {built - 1} weights, "
            "the WEYLWORKS_MAX_DIM guard; raise it if intended$",
        ):
            character_table(lam, n)
    if weights is not None:
        monkeypatch.setenv("WEYLWORKS_MAX_DIM", str(weights))
        assert len(character_table(lam, n).entries) == weights
