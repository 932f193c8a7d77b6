import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from test_linalg import dense_rref
from weylworks.lattice import (
    LatticeSubspace,
    StratumLocation,
    close_under_shift,
    coordinate_index,
    fixed_point,
    jordan_type,
    mv_cycle_count,
    shift_vector,
    stratum_membership,
)
from weylworks.weights import pad, partitions


def monomial_subspace(n, D, cells):
    """Subspace spanned by the monomials z^j e_i for (j, i) in cells."""
    indices = sorted(coordinate_index(j, i, n, D) for j, i in cells)
    return LatticeSubspace(n=n, D=D, basis=tuple({idx: 1} for idx in indices))


def test_shift_vector():
    n, D = 2, 3
    vec = {coordinate_index(2, 0, n, D): Fraction(1)}
    shifted = shift_vector(vec, n, D)
    assert shifted == {coordinate_index(1, 0, n, D): Fraction(1)}
    ground = {coordinate_index(0, 1, n, D): Fraction(5)}
    assert shift_vector(ground, n, D) == {}


def test_fixed_point_examples():
    ker = fixed_point((1, 1, 1), 3)
    assert ker.dim == 3
    sub = fixed_point((2, 1), 2)
    assert sub.dim == 3
    cells = {(0, 0), (1, 0), (0, 1)}
    assert sub.basis == monomial_subspace(2, sub.D, cells).basis
    assert fixed_point((0, 0), 2).dim == 0
    for n in (1, 2, 3):
        for mu in itertools.product(range(4), repeat=n):
            sub = fixed_point(mu, n)
            cells = {(j, i) for i in range(n) for j in range(mu[i])}
            assert sub.D == max(mu) + 1
            assert sub.basis == monomial_subspace(n, sub.D, cells).basis, mu
    with pytest.raises(ValueError):
        fixed_point((1, -1), 2)
    with pytest.raises(ValueError):
        fixed_point((1, 1), 3)


def test_jordan_type_of_fixed_points():
    for total in range(7):
        for lam in partitions(total, max_parts=3):
            padded = pad(lam, 3)
            for w in set(itertools.permutations(padded)):
                assert jordan_type(fixed_point(w, 3)) == lam, (lam, w)


def test_jordan_type_of_kernel():
    assert jordan_type(fixed_point((1, 1), 2)) == (1, 1)
    assert jordan_type(fixed_point((0, 0, 0), 3)) == ()


def test_jordan_type_rejects_unstable_basis():
    # span of z e1 alone is not shift-stable
    sub = monomial_subspace(2, 2, {(1, 0)})
    with pytest.raises(ValueError):
        jordan_type(sub)


def test_monomial_subspaces_stable_iff_fixed_point():
    # among monomial-spanned subspaces the shift-stable ones are exactly
    # those whose degree sets are prefixes, i.e. the fixed points
    for n in (1, 2, 3):
        for D in (1, 2, 3):
            monomials = [(j, i) for j in range(D) for i in range(n)]
            for r in range(len(monomials) + 1):
                for cells in itertools.combinations(monomials, r):
                    sub = monomial_subspace(n, D, set(cells))
                    try:
                        jordan_type(sub)
                        stable = True
                    except ValueError:
                        stable = False
                    degrees = {
                        i: {j for j, ii in cells if ii == i} for i in range(n)
                    }
                    prefix_form = all(
                        degrees[i] == set(range(len(degrees[i])))
                        for i in range(n)
                    )
                    assert stable == prefix_form, (n, D, cells)


def test_stratum_membership_examples():
    sub = fixed_point((2, 1), 2)
    assert stratum_membership(sub, (2, 1)) == StratumLocation.IN_STRATUM
    ker = fixed_point((1, 1), 2)
    assert stratum_membership(ker, (2,)) == StratumLocation.IN_CLOSURE_ONLY
    assert stratum_membership(ker, (3,)) == StratumLocation.OUTSIDE
    # incomparable Jordan types of equal size
    sub = fixed_point((3, 3, 0), 3)
    assert stratum_membership(sub, (4, 1, 1)) == StratumLocation.OUTSIDE


def test_close_under_shift_reaches_fixed_point():
    n, D = 2, 3
    vec = {coordinate_index(2, 0, n, D): Fraction(1)}
    sub = close_under_shift(n, D, [vec])
    assert sub.dim == 3
    assert jordan_type(sub) == (3,)
    for outside in (-1, n * D):
        with pytest.raises(ValueError):
            close_under_shift(n, D, [{outside: 1}])


def test_random_shift_stable_subspaces_land_in_their_stratum():
    rng = random.Random(1234)
    for _ in range(30):
        n = rng.choice((2, 3))
        D = rng.choice((2, 3))
        vecs = []
        for _ in range(rng.randint(1, 3)):
            vec = {
                c: Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                for c in range(n * D)
            }
            vecs.append(vec)
        sub = close_under_shift(n, D, vecs)
        jt = jordan_type(sub)
        assert sum(jt) == sub.dim
        assert len(jt) <= n
        assert stratum_membership(sub, jt) == StratumLocation.IN_STRATUM


def test_serialization_round_trip():
    for sub in [
        fixed_point((3, 1, 0), 3),
        close_under_shift(2, 2, [{0: Fraction(1, 2), 2: Fraction(1), 3: Fraction(3)}]),
    ]:
        data = json.loads(json.dumps(sub.to_dict()))
        assert LatticeSubspace.from_dict(data) == sub


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_file_format_is_the_dense_rref_of_the_closure(n, D, data):
    scalars = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4))
    dense = data.draw(st.lists(st.lists(scalars, min_size=n * D, max_size=n * D),
                               max_size=3))
    sub = close_under_shift(n, D, [dict(enumerate(row)) for row in dense])
    # the closure is spanned by each vector and its shifts; X^D = 0, and
    # the shift moves every coordinate n places towards degree zero
    spanning = []
    for row in dense:
        for _ in range(D):
            spanning.append(row)
            row = [Fraction(0)] * n + row[:-n]
    reduced, _ = dense_rref(spanning)
    payload = sub.to_dict()
    assert payload["basis"] == [[str(x) for x in row] for row in reduced]
    restored = LatticeSubspace.from_dict(json.loads(json.dumps(payload)))
    assert restored == sub
    for stored in (sub, restored):
        for row in stored.basis:
            assert all(type(x) is int or x.denominator != 1 for x in row.values())


def test_from_dict_rejects_unstable_basis():
    data = {"n": 2, "D": 2, "basis": [["1", "0", "0", "0"]]}  # z e1 alone
    with pytest.raises(ValueError):
        LatticeSubspace.from_dict(data)


def test_mv_cycle_count_values():
    assert mv_cycle_count((2, 1, 0), (1, 1, 1), 3) == 2
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            omega = (1,) * k
            for mu in set(itertools.permutations((1,) * k + (0,) * (n - k))):
                assert mv_cycle_count(omega, mu, n) == 1
    assert mv_cycle_count((4, 2), (4, 2), 2) == 1
    with pytest.raises(ValueError):
        mv_cycle_count((1, 1, 1), (1, 1, 1), 2)
