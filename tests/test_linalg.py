from fractions import Fraction

from hypothesis import given, settings, strategies as st

from weylworks.linalg import EchelonBasis, kernel, vec_add_scaled


def dense_rref(rows):
    """Textbook Gauss-Jordan elimination, kept as the reference for
    EchelonBasis; returns (rows, pivot columns) as dense Fraction lists."""
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


def densified(eb, ncols):
    """eb's rows in pivot order as dense lists, and their pivot columns."""
    pivots = sorted(eb.rows)
    return [[eb.rows[p].get(c, 0) for c in range(ncols)] for p in pivots], pivots


def echelon_rref(rows, ncols):
    eb = EchelonBasis()
    for row in rows:
        eb.insert({c: v for c, v in enumerate(row) if v})
    return densified(eb, ncols)


def kernel_from_rref(rows, ncols):
    """Dense kernel basis, one vector per free column in ascending order,
    with a 1 there and 0 in every other free column."""
    reduced, pivots = dense_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[f]
        basis.append(vec)
    return basis


matrices = st.integers(1, 6).flatmap(
    lambda ncols: st.lists(
        st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols), max_size=6
    ).map(lambda rows: (rows, ncols))
)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_rref_matches_dense_reference(case):
    rows, ncols = case
    assert echelon_rref(rows, ncols) == dense_rref(rows)


@settings(max_examples=200, deadline=None)
@given(matrices)
def test_sparse_kernel_matches_rref_kernel(case):
    rows, ncols = case
    sparse = [{c: v for c, v in enumerate(row) if v} for row in rows]
    basis = kernel(sparse, ncols)
    ref_basis = kernel_from_rref(rows, ncols)
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
    assert densified(eb, ncols) == dense_rref(rows)
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
    for vec in kernel(sparse, ncols):
        assert_canonical(vec.values())


def test_rref_keeps_exact_fractions():
    assert echelon_rref([[2, 1], [4, 3]], 2) == ([[1, 0], [0, 1]], [0, 1])
    eb = EchelonBasis()
    eb.insert({0: 2, 1: 1})
    assert eb.rows == {0: {0: 1, 1: Fraction(1, 2)}}
    assert type(eb.rows[0][0]) is int and type(eb.rows[0][1]) is Fraction
    assert echelon_rref([], 2) == ([], [])
    assert echelon_rref([[0, 0]], 2) == ([], [])


def test_insert_leaves_no_foreign_pivot_in_any_row():
    eb = EchelonBasis()
    inserts = [
        ({1: 1, 2: 1}, {1: {1: 1, 2: 1}}),
        # pivot 2 is held by row 1: back-substitution clears it there
        ({2: 2}, {1: {1: 1}, 2: {2: 1}}),
        # pivot 0 was never held: no row is touched
        ({0: 3, 3: 1}, {0: {0: 1, 3: Fraction(1, 3)}, 1: {1: 1}, 2: {2: 1}}),
        # pivot 3 is held by row 0
        (
            {3: 1, 4: 1},
            {0: {0: 1, 4: Fraction(-1, 3)}, 1: {1: 1}, 2: {2: 1}, 3: {3: 1, 4: 1}},
        ),
        # pivot 4 is held by rows 0 and 3
        (
            {4: 1},
            {0: {0: 1}, 1: {1: 1}, 2: {2: 1}, 3: {3: 1}, 4: {4: 1}},
        ),
    ]
    for vec, expected in inserts:
        eb.insert(vec)
        assert eb.rows == expected
        for p, row in eb.rows.items():
            assert row[p] == 1
            assert not (set(row) & set(eb.rows)) - {p}, (p, row)



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
