"""Exact linear algebra over the rationals.

Sparse vectors are dicts mapping coordinate index to a nonzero int or
Fraction; they are the package's one vector representation.  Every
scalar this module stores or returns is a plain int when its
denominator is 1 and a Fraction only otherwise, so integral work
(nearly all of it: the generator matrices have small integer entries)
never builds a Fraction.  RatMat is a sparse column store used only by
application to sparse vectors; the one operator product is
bracket_column, a column of the commutator xy - yx, which checks the
Chevalley relations.  kronecker_sum applies x (x) 1 + 1 (x) y without
building it.  EchelonBasis keeps a growing subspace in reduced row echelon
form, one row per pivot column; that form is the canonical basis of the
subspace, so results never depend on insertion order.  It is the
package's one Gauss-Jordan elimination.  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantViolation

Scalar = int | Fraction
SparseVec = dict[int, Scalar]


def _demote(x: Scalar) -> Scalar:
    """x as an int if it is integral, else unchanged."""
    return x.numerator if x.denominator == 1 else x


def vec_add_scaled(target: SparseVec, src: SparseVec, coeff: Scalar) -> None:
    """target += coeff * src, in place, dropping zeros; integral results
    are stored as ints."""
    if not coeff:
        return
    for k, v in src.items():
        nv = target.get(k, 0) + coeff * v
        if nv:
            target[k] = nv if nv.__class__ is int else _demote(nv)
        else:
            target.pop(k, None)


class RatMat:
    """Immutable-by-convention sparse matrix over exact rationals."""

    __slots__ = ("nrows", "ncols", "_cols")

    def __init__(self, nrows: int, ncols: int, cols: dict[int, SparseVec]):
        self.nrows = nrows
        self.ncols = ncols
        self._cols = cols

    @classmethod
    def from_entries(cls, nrows, ncols, entries) -> "RatMat":
        """Build from an iterable of (row, col, value); repeats are summed."""
        cols: dict[int, SparseVec] = {}
        for r, c, v in entries:
            if not v:
                continue
            if not (0 <= r < nrows and 0 <= c < ncols):
                raise ValueError(f"entry ({r}, {c}) outside a {nrows}x{ncols} matrix")
            col = cols.setdefault(c, {})
            nv = col.get(r, 0) + v
            if nv:
                col[r] = nv
            else:
                del col[r]
        for c in [c for c, col in cols.items() if not col]:
            del cols[c]
        return cls(nrows, ncols, cols)

    def column(self, c: int) -> SparseVec:
        return self._cols.get(c, {})

    def apply(self, vec: SparseVec) -> SparseVec:
        """Matrix-vector product on a sparse vector."""
        out: SparseVec = {}
        for c, x in vec.items():
            if x:
                vec_add_scaled(out, self._cols.get(c, {}), x)
        return out

    def entries(self) -> list[tuple[int, int, Scalar]]:
        """All nonzero entries sorted row-major."""
        out = [(r, c, v) for c, col in self._cols.items() for r, v in col.items()]
        out.sort(key=lambda t: (t[0], t[1]))
        return out

    def __repr__(self) -> str:
        nnz = sum(len(col) for col in self._cols.values())
        return f"RatMat({self.nrows}x{self.ncols}, {nnz} nonzero)"


def kronecker_sum(x: RatMat, y: RatMat):
    """The map x (x) 1 + 1 (x) y of two square matrices, never built.

    Returns a function applying it to a sparse vector whose key
    i * y.ncols + j is e_i (x) e_j, the basis order of
    glmodules.tensor.  Each column of x and y is read once into (key
    delta, value) pairs, so one key costs one divmod and two lookups.
    The result equals the built matrix's apply, with ints unless
    fractional.
    """
    step = y.ncols
    cols_x = [
        tuple(((r - c) * step, v) for r, v in x.column(c).items())
        for c in range(x.ncols)
    ]
    cols_y = [tuple((r - c, v) for r, v in y.column(c).items()) for c in range(step)]

    def apply(vec: SparseVec) -> SparseVec:
        out: SparseVec = {}
        for key, coeff in vec.items():
            i, j = divmod(key, step)
            for delta, v in cols_x[i] + cols_y[j]:
                k = key + delta
                nv = out.get(k, 0) + coeff * v
                if nv:
                    out[k] = nv if nv.__class__ is int else _demote(nv)
                else:
                    out.pop(k, None)
        return out

    return apply


def bracket_column(x: RatMat, y: RatMat, c: int) -> SparseVec:
    """Column c of the commutator xy - yx, from two applications."""
    out = x.apply(y.column(c))
    vec_add_scaled(out, y.apply(x.column(c)), -1)
    return out


class EchelonBasis:
    """A subspace maintained in reduced row echelon form over Q.

    rows maps each pivot column to its sparse row, whose pivot entry is 1;
    pivot columns are zero in every other row.  RREF is a normal form, so
    rows depends only on the subspace; its dict order does not, so sort it.
    """

    def __init__(self):
        self.rows: dict[int, SparseVec] = {}
        # every column any stored row has held; it only grows, so a new
        # pivot outside it is in no row and needs no back-substitution
        self._held: set[int] = set()

    def _eliminate(self, vec: SparseVec, record: dict[int, Scalar] | None) -> SparseVec:
        rows = self.rows
        v = {c: x if x.__class__ is int else _demote(x) for c, x in vec.items()}
        # RREF rows contain no foreign pivot columns, so one sorted pass
        # over the pivot columns initially present in v is complete.
        for c in sorted(c for c in v if c in rows):
            coeff = v.get(c)
            if not coeff:
                continue
            if record is not None:
                record[c] = coeff
            vec_add_scaled(v, rows[c], -coeff)
        return v

    def residual(self, vec: SparseVec) -> SparseVec:
        """Reduce vec against the basis; empty dict means vec is in the span."""
        return self._eliminate(vec, None)

    def insert(self, vec: SparseVec) -> SparseVec | None:
        """Add vec to the span.

        Returns a copy of the new normalized row if the span grew, else None.
        """
        v = self._eliminate(vec, None)
        if not v:
            return None
        pivot = min(v)
        lead = v[pivot]
        if lead != 1:
            inv = Fraction(1) / lead
            v = {c: _demote(val * inv) for c, val in v.items()}
        if pivot in self._held:
            for row in self.rows.values():
                if pivot in row:
                    vec_add_scaled(row, v, -row[pivot])
        self._held.update(v)
        self.rows[pivot] = v
        return dict(v)

    def coords(self, vec: SparseVec) -> dict[int, Scalar]:
        """Coordinates of vec in the stored rows, keyed by pivot column.

        Raises InvariantViolation if vec is outside the span.
        """
        record: dict[int, Scalar] = {}
        leftover = self._eliminate(vec, record)
        if leftover:
            raise InvariantViolation("vector lies outside the spanned subspace")
        return record


def power_ranks(vectors, apply) -> list[int]:
    """Ranks over Q of T^0, T^1, ... on the span of vectors, up to the first 0.

    apply maps a sparse vector to its image under T, which must be
    nilpotent on the span.
    """
    ranks = []
    while True:
        eb = EchelonBasis()
        vectors = [row for row in map(eb.insert, vectors) if row is not None]
        ranks.append(len(eb.rows))
        if not vectors:
            return ranks
        vectors = [apply(row) for row in vectors]


def kernel(rows: list[SparseVec], ncols: int) -> tuple[list[SparseVec], list[int]]:
    """Kernel basis of the linear map given by sparse ``rows`` (col -> value).

    Returns (basis, free_cols).  Basis vector i has a 1 in column
    free_cols[i] and 0 in every other free column, so the coordinates of
    any kernel element are simply its values at the free columns.  The
    vectors are sparse, keys ascending; since RREF is canonical the basis
    depends only on the row space.  Entries are ints unless fractional.
    """
    eb = EchelonBasis()
    for row in rows:
        eb.insert(row)
    basis: dict[int, SparseVec] = {f: {f: 1} for f in range(ncols) if f not in eb.rows}
    for p, row in eb.rows.items():
        for c, v in row.items():
            if c != p:
                basis[c][p] = -v
    return [dict(sorted(vec.items())) for vec in basis.values()], list(basis)
