"""Exact linear algebra over the rationals and over prime fields F_p.

Sparse vectors are dicts mapping coordinate index to a nonzero int or
Fraction.  Over Q every scalar this module stores or returns is a plain
int when its denominator is 1 and a Fraction only otherwise, so integral
work (nearly all of it: the generator matrices have small integer
entries) never builds a Fraction; rref and dense_rows are the exception
and return Fractions throughout.  RatMat is a sparse column store used
only by application to sparse vectors; the one operator product is
bracket_column, a column of the commutator xy - yx, which checks every
relation.  EchelonBasis keeps a growing subspace in reduced row echelon
form, which is the canonical basis of the subspace, so results never
depend on insertion order; it is the package's one Gauss-Jordan
elimination, over Q or, given modulus=p, over F_p with entries in
range(p).  No floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantViolation

Scalar = int | Fraction
SparseVec = dict[int, Scalar]


def _demote(x: Scalar) -> Scalar:
    """x as an int if it is integral, else unchanged."""
    return x.numerator if x.denominator == 1 else x


def vec_add_scaled(
    target: SparseVec, src: SparseVec, coeff: Scalar, modulus: int | None = None
) -> None:
    """target += coeff * src, in place, dropping zeros; mod modulus if given.

    Over Q an integral result is stored as an int.
    """
    if not coeff:
        return
    if modulus is None:
        for k, v in src.items():
            nv = target.get(k, 0) + coeff * v
            if nv:
                target[k] = nv if nv.__class__ is int else _demote(nv)
            else:
                target.pop(k, None)
        return
    for k, v in src.items():
        nv = (target.get(k, 0) + coeff * v) % modulus
        if nv:
            target[k] = nv
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


def bracket_column(x: RatMat, y: RatMat, c: int) -> SparseVec:
    """Column c of the commutator xy - yx, from two applications."""
    out = x.apply(y.column(c))
    vec_add_scaled(out, y.apply(x.column(c)), -1)
    return out


class EchelonBasis:
    """A subspace maintained in reduced row echelon form over Q, or over
    F_modulus for a prime modulus (input integers are reduced on entry).

    Rows are sparse vectors; every pivot entry is 1 and pivot columns are
    zero in all other rows.  Because RREF is a normal form, the stored
    rows depend only on the subspace, not on the insertion history.
    """

    def __init__(self, modulus: int | None = None):
        self.modulus = modulus
        self.rows: list[SparseVec] = []
        self.pivots: list[int] = []
        self._pivot_row: dict[int, int] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def _eliminate(self, vec: SparseVec, record: dict[int, Scalar] | None) -> SparseVec:
        p = self.modulus
        if p is None:
            v = {c: x if x.__class__ is int else _demote(x) for c, x in vec.items()}
        else:
            v = {c: x % p for c, x in vec.items() if x % p}
        # RREF rows contain no foreign pivot columns, so one sorted pass
        # over the pivot columns initially present in v is complete.
        for c in sorted(c for c in v if c in self._pivot_row):
            coeff = v.get(c)
            if not coeff:
                continue
            ri = self._pivot_row[c]
            if record is not None:
                record[ri] = coeff
            vec_add_scaled(v, self.rows[ri], -coeff, p)
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
        p = self.modulus
        if p is None:
            lead = v[pivot]
            if lead != 1:
                inv = Fraction(1) / lead
                v = {c: _demote(val * inv) for c, val in v.items()}
        else:
            inv = pow(v[pivot], -1, p)
            v = {c: val * inv % p for c, val in v.items()}
        for row in self.rows:
            if pivot in row:
                vec_add_scaled(row, v, -row[pivot], p)
        self._pivot_row[pivot] = len(self.rows)
        self.rows.append(v)
        self.pivots.append(pivot)
        return dict(v)

    def coords(self, vec: SparseVec) -> dict[int, Scalar]:
        """Coordinates of vec in the stored rows, keyed by row index.

        Raises InvariantViolation if vec is outside the span.
        """
        record: dict[int, Scalar] = {}
        leftover = self._eliminate(vec, record)
        if leftover:
            raise InvariantViolation("vector lies outside the spanned subspace")
        return record

    def sorted_order(self) -> list[int]:
        """Row indices ordered by pivot column."""
        return sorted(range(len(self.rows)), key=lambda i: self.pivots[i])

    def dense_rows(self, ncols: int) -> list[list[Scalar]]:
        """The rows ordered by pivot column, as dense lists of length ncols;
        over Q every entry is a Fraction."""
        conv = Fraction if self.modulus is None else int
        return [
            [conv(self.rows[i].get(c, 0)) for c in range(ncols)]
            for i in self.sorted_order()
        ]


def power_ranks(vectors, apply) -> list[int]:
    """Ranks over Q of T^0, T^1, ... on the span of vectors, up to the first 0.

    apply maps a sparse vector to its image under T, which must be
    nilpotent on the span.
    """
    ranks = []
    while True:
        eb = EchelonBasis()
        vectors = [row for row in map(eb.insert, vectors) if row is not None]
        ranks.append(eb.dim)
        if not vectors:
            return ranks
        vectors = [apply(row) for row in vectors]


def rref(rows: list[list[Scalar]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a dense matrix; returns (rows, pivot cols).

    The nonzero rows come back in pivot order as dense Fraction lists.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    eb = EchelonBasis()
    for row in rows:
        eb.insert({c: v for c, v in enumerate(row) if v})
    return eb.dense_rows(ncols), sorted(eb.pivots)


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
    pivot_set = set(eb.pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    slot = {f: t for t, f in enumerate(free)}
    basis: list[SparseVec] = [{f: 1} for f in free]
    for row, p in zip(eb.rows, eb.pivots):
        for c, v in row.items():
            if c != p:
                basis[slot[c]][p] = -v
    return [{c: vec[c] for c in sorted(vec)} for vec in basis], free
