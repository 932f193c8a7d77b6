"""Shift-stable subspaces of a truncated loop space.

The ambient space is spanned by monomials z^k e_i with 0 <= k < D,
1 <= i <= n, and the shift operator X sends z^k e_i to z^{k-1} e_i
(degree zero maps to 0).  Coordinates are ordered by descending degree
and then by component, so reduced echelon bases are canonical.  Vectors
are sparse (coordinate index -> scalar), as everywhere in linalg; a
dense row of all n*D coordinates exists only in the JSON file format
that to_dict writes and from_dict reads.  The Jordan type of X
restricted to a stable subspace classifies which stratum of
shift-stable subspaces it belongs to; closures are governed by
dominance.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from fractions import Fraction

from .characters import DEFAULT_SIZE_GUARD, character
from .errors import check_dimension
from .linalg import EchelonBasis, Scalar, SparseVec, power_ranks
from .weights import Partition, as_partition, conjugate, dominance_leq, pad


class StratumLocation(enum.Enum):
    IN_STRATUM = "in-stratum"
    IN_CLOSURE_ONLY = "in-closure-only"
    OUTSIDE = "outside"


def coordinate_index(degree: int, component: int, n: int, D: int) -> int:
    """Index of the monomial z^degree e_component (component 0-indexed)."""
    if not 0 <= degree < D or not 0 <= component < n:
        raise ValueError(f"monomial z^{degree} e_{component} outside the D={D} window")
    return (D - 1 - degree) * n + component


def shift_vector(vec: dict[int, Scalar], n: int, D: int) -> dict[int, Scalar]:
    """Apply the shift operator to a sparse coordinate vector."""
    out = {}
    top = (D - 1) * n
    for idx, v in vec.items():
        if idx < top:  # degree >= 1, drop the degree-zero block
            out[idx + n] = v
    return out


@dataclass(frozen=True)
class LatticeSubspace:
    """A shift-stable subspace, stored as a reduced echelon basis.

    basis holds the rows of EchelonBasis in pivot order: sparse vectors
    over the n*D coordinates of the monomial ordering above, each entry
    an int unless it is fractional.  Instances built by the constructors
    here are always shift-stable; jordan_type re-validates in case a
    basis arrived from outside.
    """

    n: int
    D: int
    basis: tuple[SparseVec, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "D": self.D,
            "basis": [
                [str(row.get(c, 0)) for c in range(self.n * self.D)]
                for row in self.basis
            ],
        }

    @classmethod
    def from_dict(cls, data) -> "LatticeSubspace":
        """Inverse of to_dict; malformed input raises ValueError.

        n and D must be JSON integers, n * D must pass WEYLWORKS_MAX_DIM
        (ResourceLimitError), and every entry must be an integer or a
        string "p" or "p/q" with q nonzero, as to_dict writes them.
        """
        if not isinstance(data, dict):
            raise ValueError(f"a subspace is a JSON object, got {type(data).__name__}")
        missing = [key for key in ("n", "D", "basis") if key not in data]
        if missing:
            raise ValueError(f"subspace lacks the key(s) {', '.join(missing)}")
        n, D = data["n"], data["D"]
        if not (_is_int(n) and _is_int(D)):
            raise ValueError(f"n and D must be integers, got {type(n).__name__} "
                             f"and {type(D).__name__}")
        if n < 1 or D < 1:
            raise ValueError("n and D must be at least 1")
        check_dimension(n * D)
        basis = data["basis"]
        if not isinstance(basis, list) or not all(isinstance(r, list) for r in basis):
            raise ValueError("basis must be a list of rows")
        eb = EchelonBasis()
        for row in basis:
            if len(row) != n * D:
                raise ValueError(
                    f"basis row has length {len(row)}, expected n*D = {n * D}"
                )
            eb.insert({c: x for c, x in enumerate(map(_entry, row)) if x})
        sub = _from_echelon(n, D, eb)
        _require_shift_stable(sub)
        return sub


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _entry(x) -> Scalar:
    """A basis entry: an integer, or the string of an integer or a fraction."""
    if _is_int(x):
        return x
    if isinstance(x, str) and re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", x):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            pass
    raise ValueError(f"basis entry {x!r} is not an integer or a fraction p/q")


def _from_echelon(n: int, D: int, eb: EchelonBasis) -> LatticeSubspace:
    return LatticeSubspace(n, D, tuple(row for _, row in sorted(eb.rows.items())))


def _require_shift_stable(sub: LatticeSubspace) -> None:
    eb = EchelonBasis()
    for row in sub.basis:
        eb.insert(row)
    for row in sub.basis:
        if eb.residual(shift_vector(row, sub.n, sub.D)):
            raise ValueError("subspace is not stable under the shift operator")


def fixed_point(mu, n: int) -> LatticeSubspace:
    """The monomial subspace spanned by z^j e_i for j < mu_i.

    mu is a nonnegative integer vector of length n.  These are exactly
    the shift-stable subspaces spanned by monomials, and each is the
    shift closure of its top monomials z^(mu_i - 1) e_i.
    """
    mu = tuple(int(x) for x in mu)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if len(mu) != n:
        raise ValueError(f"mu must have length n={n}, got {mu}")
    if any(x < 0 for x in mu):
        raise ValueError(f"mu must be nonnegative, got {mu}")
    D = max(mu, default=0) + 1
    check_dimension(n * D)
    tops = [{coordinate_index(mu[i] - 1, i, n, D): 1} for i in range(n) if mu[i]]
    return close_under_shift(n, D, tops)


def close_under_shift(n: int, D: int, vectors) -> LatticeSubspace:
    """Smallest shift-stable subspace containing the given sparse vectors.

    Each vector maps coordinate indices in range(n * D) to scalars; zero
    entries are dropped.
    """
    eb = EchelonBasis()
    queue = []
    for vec in vectors:
        if not all(0 <= c < n * D for c in vec):
            raise ValueError(f"a coordinate lies outside range(n*D) = range({n * D})")
        stored = eb.insert({c: x for c, x in vec.items() if x})
        if stored is not None:
            queue.append(stored)
    while queue:
        vec = queue.pop()
        stored = eb.insert(shift_vector(vec, n, D))
        if stored is not None:
            queue.append(stored)
    return _from_echelon(n, D, eb)


def jordan_type(sub: LatticeSubspace) -> Partition:
    """Jordan type of the shift operator restricted to the subspace.

    Computed from the rank sequence of shift powers: the multiset of
    block sizes is the conjugate of the successive rank drops.  Raises
    ValueError if the subspace is not shift-stable.
    """
    _require_shift_stable(sub)
    ranks = power_ranks(sub.basis, lambda vec: shift_vector(vec, sub.n, sub.D))
    drops = [ranks[k] - ranks[k + 1] for k in range(len(ranks) - 1)]
    return conjugate(as_partition(drops))


def stratum_membership(sub: LatticeSubspace, lam) -> StratumLocation:
    """Locate the subspace relative to the stratum labeled by lam.

    IN_STRATUM when the Jordan type equals lam, IN_CLOSURE_ONLY when it
    is strictly below lam in dominance order, OUTSIDE otherwise.
    """
    lam = as_partition(lam)
    return stratum_location(jordan_type(sub), lam)


def stratum_location(jt: Partition, lam: Partition) -> StratumLocation:
    """Locate a subspace of Jordan type jt relative to the stratum of the
    partition lam, as stratum_membership does."""
    if jt == lam:
        return StratumLocation.IN_STRATUM
    if sum(jt) == sum(lam):
        width = max(len(jt), len(lam))
        if dominance_leq(pad(jt, width), pad(lam, width)):
            return StratumLocation.IN_CLOSURE_ONLY
    return StratumLocation.OUTSIDE


def mv_cycle_count(lam, mu, n: int, *, size_guard: int | None = DEFAULT_SIZE_GUARD) -> int:
    """Number of cycle components of weight mu for the stratum closure of lam.

    Derived from character data: the count equals the dimension of the
    mu weight space of the irreducible with highest weight lam.  No
    cycle geometry is constructed here.
    """
    lam = as_partition(lam)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if len(lam) > n:
        raise ValueError(f"partition {lam} has more than n={n} parts")
    return character(pad(lam, n), mu, size_guard=size_guard)
