from fractions import Fraction

from hypothesis import given, settings, strategies as st

from weylworks.linalg import EchelonBasis, kernel, rref, vec_add_scaled


def dense_rref(rows):
    """Textbook Gauss-Jordan elimination, kept as the reference for rref."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        src = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if src is None:
            continue
        mat[r], mat[src] = mat[src], mat[r]
        mat[r] = [x / mat[r][c] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                coeff = mat[i][c]
                mat[i] = [x - coeff * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def kernel_from_rref(rows, ncols):
    reduced, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis, free


matrices = st.integers(1, 6).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), max_size=6
    ).map(lambda rows: (rows, ncols))
)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_rref_matches_dense_reference(case):
    rows, _ = case
    assert rref(rows) == dense_rref(rows)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_sparse_kernel_matches_rref_kernel(case):
    rows, ncols = case
    sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
    basis, free = kernel(sparse, ncols)
    ref_basis, ref_free = kernel_from_rref(rows, ncols)
    assert free == ref_free
    assert [[vec.get(c, 0) for c in range(ncols)] for vec in basis] == ref_basis
    for vec in basis:
        assert all(v for v in vec.values())
        assert list(vec) == sorted(vec)
        for row in rows:
            assert sum(row[c] * v for c, v in vec.items()) == 0


scalars = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(lambda k: Fraction(k, 1)),
    st.builds(Fraction, st.integers(-3, 3), st.integers(2, 4)),
)
mixed_matrices = st.integers(1, 6).flatmap(
    lambda ncols: st.lists(
        st.lists(scalars, min_size=ncols, max_size=ncols), max_size=6
    ).map(lambda rows: (rows, ncols))
)


def assert_canonical(values):
    """Every integral scalar is a plain int; only fractional ones are Fractions."""
    for x in values:
        assert type(x) is int or x.denominator != 1, repr(x)


@settings(max_examples=300, deadline=None)
@given(mixed_matrices)
def test_echelon_entries_are_int_unless_fractional(case):
    rows, ncols = case
    sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
    eb = EchelonBasis()
    for vec in sparse:
        stored = eb.insert(vec)
        if stored is not None:
            assert_canonical(stored.values())
    assert (eb.dense_rows(ncols), sorted(eb.rows)) == dense_rref(rows)
    for row in eb.rows.values():
        assert_canonical(row.values())
    for vec in sparse:
        record = eb.coords(vec)
        assert_canonical(record.values())
        rebuilt = {}
        for p, coeff in record.items():
            vec_add_scaled(rebuilt, eb.rows[p], coeff)
        assert_canonical(rebuilt.values())
        assert rebuilt == vec
    basis, _ = kernel(sparse, ncols)
    for vec in basis:
        assert_canonical(vec.values())


def test_rref_keeps_exact_fractions():
    reduced, pivots = rref([[2, 1], [4, 3]])
    assert reduced == [[1, 0], [0, 1]] and pivots == [0, 1]
    assert all(isinstance(x, Fraction) for row in reduced for x in row)
    assert rref([]) == ([], [])
    assert rref([[0, 0]]) == ([], [])



@settings(max_examples=200, deadline=None)
@given(mixed_matrices, st.data())
def test_stored_rows_do_not_depend_on_insertion_order(case, data):
    rows, ncols = case
    sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
    shuffled = data.draw(st.permutations(sparse))
    stores = []
    for order in (sparse, shuffled):
        eb = EchelonBasis()
        for vec in order:
            eb.insert(vec)
        stores.append(eb.rows)
    assert stores[0] == stores[1]
    assert kernel(sparse, ncols) == kernel(shuffled, ncols)
