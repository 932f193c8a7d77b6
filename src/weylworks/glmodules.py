"""Explicit gl(n) modules with exact rational generator matrices.

A module is a finite basis, one weight per basis vector, and sparse
matrices for the Chevalley raising and lowering generators (E_i has a 1
in entry (i, i+1) on the standard module; F_i is its transpose).  All
constructors act by derivations on symmetric, exterior, and tensor
products, so the defining commutation relations hold exactly over the
rationals, not just numerically.

One builder, _generators, makes generator matrices from what a generator
does to one basis label: monomials (sym_power), wedge subsets (ext_power
and the skew Howe wedge, through wedge_generators) and matrix units
(adjoint_module, bracketed on labels).  tensor lifts its factors'
matrices instead: on a labelled basis it ran twice as slow.

submodule restricts an ambient module's generators to a weight-graded
subspace given by one echelon basis per weight, checking exactly that the
subspace is closed.  Both constructions of an irreducible end with it:
irrep_plucker here and skewhowe.induced_gln_module.
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from math import comb

from .characters import DEFAULT_SIZE_GUARD, dim_irrep
from .errors import InvariantViolation, check_dimension
from .linalg import EchelonBasis, RatMat, Scalar, SparseVec, bracket_column, kernel
from .weights import (
    WeightVec,
    as_partition,
    compositions,
    conjugate,
    is_dominant,
    pad,
    simple_root,
    weight_diff,
    weight_sum,
)


@dataclass(frozen=True)
class ExplicitModule:
    """A gl(n) module given by basis weights and generator matrices.

    E[i] and F[i] are the matrices of the i-th raising and lowering
    generators, 0-indexed, acting on column vectors in the stored basis.
    """

    n: int
    dim: int
    basis_weights: tuple[WeightVec, ...]
    E: tuple[RatMat, ...]
    F: tuple[RatMat, ...]


@dataclass(frozen=True)
class Decomposition:
    """Multiset of highest weights with multiplicities, keyed by weight."""

    n: int
    multiplicities: dict[WeightVec, int]


# A generator moving one tensor factor from row (along_rows) or column
# index frm to index to: (along_rows, frm, to).  On gl(n) it is the matrix
# unit E_{to,frm}; the column form acts on the second factor of C^n (x) C^m.
Move = tuple[bool, int, int]


def _moves(count: int, along_rows: bool, raising: bool) -> list[Move]:
    """The raising (E_i) or lowering (F_i) generators of gl(count)."""
    return [
        (along_rows, i + 1, i) if raising else (along_rows, i, i + 1)
        for i in range(count - 1)
    ]


def _generators(basis, index, images, moves: list[Move]) -> tuple[RatMat, ...]:
    """Matrices of the given generators on a labelled basis.

    images(label, move) lists the (coefficient, image label) terms of one
    generator applied to one basis label, and index(label) gives an image
    label's row; column t is basis[t].  Repeated terms are summed.
    """
    dim = len(basis)

    def entries(move: Move):
        for t, label in enumerate(basis):
            for coeff, image in images(label, move):
                yield index(image), t, coeff

    return tuple(RatMat.from_entries(dim, dim, entries(move)) for move in moves)


def standard_module(n: int) -> ExplicitModule:
    """The vector representation on C^n."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    return ext_power(1, n)


def sym_power(k: int, n: int) -> ExplicitModule:
    """Sym^k(C^n) on the monomial basis, generators acting as derivations."""
    if k < 0 or n < 1:
        raise ValueError(f"bad symmetric power parameters k={k}, n={n}")
    check_dimension(n)  # before the binomial, which grows with n
    check_dimension(comb(k + n - 1, n - 1))
    basis = list(compositions(k, n))
    index = {a: t for t, a in enumerate(basis)}

    def images(a: WeightVec, move: Move) -> list[tuple[int, WeightVec]]:
        _, frm, to = move  # a[frm] ways to turn one factor e_frm into e_to
        if not a[frm]:
            return []
        return [(a[frm], tuple(x - (j == frm) + (j == to) for j, x in enumerate(a)))]

    E = _generators(basis, index.__getitem__, images, _moves(n, True, True))
    F = _generators(basis, index.__getitem__, images, _moves(n, True, False))
    return ExplicitModule(n, len(basis), tuple(basis), E, F)


def wedge_replace(
    subset: tuple[int, ...], old: int, new: int
) -> tuple[int, tuple[int, ...]] | None:
    """Replace one factor of a sorted wedge subset, tracking the parity sign.

    Returns (sign, sorted subset), or None when the substitution collides
    with an existing factor.  The sign is the parity of the number of
    factors strictly between old and new; new is slotted in by bisection,
    so the factors between are the ones it passes.
    """
    if new in subset:
        return None
    i = subset.index(old)
    j = bisect_left(subset, new)
    if new > old:
        crossings = j - i - 1
        image = subset[:i] + subset[i + 1 : j] + (new,) + subset[j:]
    else:
        crossings = i - j
        image = subset[:j] + (new,) + subset[j:i] + subset[i + 1 :]
    return (-1 if crossings % 2 else 1), image


# Wedge factors are pairs (i, a) numbered i*m + a; with m = 1 they are
# just the indices i.  A subset is a sorted tuple of factors.
Subset = tuple[int, ...]


def _move_images(subset: Subset, m: int, move: Move) -> list[tuple[int, Subset]]:
    """(sign, image subset) terms of one generator applied to one wedge
    basis vector: one term per factor in the source row or column that
    does not collide."""
    along_rows, frm, to = move
    if along_rows:
        shift = (to - frm) * m
        sources = [p for p in subset if p // m == frm]
    else:
        shift = to - frm
        sources = [p for p in subset if p % m == frm]
    out = []
    for p in sources:
        hit = wedge_replace(subset, p, p + shift)
        if hit is not None:
            out.append(hit)
    return out


def _rank(subset: Subset, size: int) -> int:
    """Lexicographic rank of a sorted subset among all subsets of
    range(size) with as many elements."""
    k = len(subset)
    rank = comb(size, k) - 1
    for j, c in enumerate(subset):
        rank -= comb(size - 1 - c, k - j)
    return rank


def wedge_generators(
    basis: list[Subset] | tuple[Subset, ...], size: int, m: int, moves: list[Move]
) -> tuple[RatMat, ...]:
    """Matrices of the given generators on a wedge basis.

    basis must list every sorted k-subset of range(size) in lexicographic
    order (itertools.combinations), so that an image subset's row is its
    lexicographic rank.
    """
    return _generators(
        basis, lambda s: _rank(s, size), lambda s, move: _move_images(s, m, move), moves
    )


def ext_power(k: int, n: int) -> ExplicitModule:
    """Lambda^k(C^n) on sorted k-subsets of {0, ..., n-1}."""
    if not 0 <= k <= n:
        raise ValueError(f"bad exterior power parameters k={k}, n={n}")
    check_dimension(n)  # before the binomial, which grows with n
    check_dimension(comb(n, k))
    basis = list(itertools.combinations(range(n), k))
    weights = tuple(
        tuple(1 if j in s else 0 for j in range(n)) for s in basis
    )
    E = wedge_generators(basis, n, 1, _moves(n, True, True))
    F = wedge_generators(basis, n, 1, _moves(n, True, False))
    return ExplicitModule(n, len(basis), weights, E, F)


def tensor(a: ExplicitModule, b: ExplicitModule) -> ExplicitModule:
    """Tensor product; generators act as g (x) 1 + 1 (x) g."""
    if a.n != b.n:
        raise ValueError(f"rank mismatch: {a.n} vs {b.n}")
    check_dimension(a.dim * b.dim)
    dim = a.dim * b.dim
    weights = tuple(
        weight_sum(wa, wb) for wa in a.basis_weights for wb in b.basis_weights
    )
    E, F = [], []
    for i in range(a.n - 1):
        e_entries, f_entries = [], []
        for mats, out in ((a.E[i], e_entries), (a.F[i], f_entries)):
            for r, c, v in mats.entries():
                for j in range(b.dim):
                    out.append((r * b.dim + j, c * b.dim + j, v))
        for mats, out in ((b.E[i], e_entries), (b.F[i], f_entries)):
            for r, c, v in mats.entries():
                for j in range(a.dim):
                    out.append((j * b.dim + r, j * b.dim + c, v))
        E.append(RatMat.from_entries(dim, dim, e_entries))
        F.append(RatMat.from_entries(dim, dim, f_entries))
    return ExplicitModule(a.n, dim, weights, tuple(E), tuple(F))


def adjoint_module(n: int) -> ExplicitModule:
    """sl(n) under the commutator action, inside gl(n) matrices.

    Basis: off-diagonal matrix units E_ab, labelled (a, b) (weight
    e_a - e_b), then the n-1 diagonal differences H_i = E_ii -
    E_{i+1,i+1}, labelled (i, i) (weight zero).  Brackets are taken on
    labels, never on n x n matrices.
    """
    if n < 2:
        raise ValueError("adjoint module needs rank at least 2")
    check_dimension(n * n - 1)
    basis = [(a, b) for a in range(n) for b in range(n) if a != b]
    basis += [(i, i) for i in range(n - 1)]
    index = {label: t for t, label in enumerate(basis)}

    def images(label: tuple[int, int], move: Move) -> list:
        # the move is E_{to,frm}, and
        # [E_{to,frm}, E_ab] = [a = frm] E_{to,b} - [b = to] E_{a,frm}
        _, frm, to = move
        a, b = label
        if a == b:  # H_a: the E_aa term less the E_{a+1,a+1} term
            coeff = (frm == a) - (to == a) - (frm == a + 1) + (to == a + 1)
            return [(coeff, (to, frm))] if coeff else []
        if (a, b) == (frm, to):  # E_{to,to} - E_{frm,frm} = +-H_min
            return [(1 if to < frm else -1, (min(a, b),) * 2)]
        return [(1, (to, b))] * (a == frm) + [(-1, (a, frm))] * (b == to)

    weights = tuple(tuple((j == a) - (j == b) for j in range(n)) for a, b in basis)
    E = _generators(basis, index.__getitem__, images, _moves(n, True, True))
    F = _generators(basis, index.__getitem__, images, _moves(n, True, False))
    return ExplicitModule(n, len(basis), weights, E, F)


def weight_decompose(mod: ExplicitModule) -> dict[WeightVec, tuple[int, ...]]:
    """Basis indices grouped by weight, weights in descending order."""
    groups: dict[WeightVec, list[int]] = {}
    for idx, w in enumerate(mod.basis_weights):
        groups.setdefault(w, []).append(idx)
    return {w: tuple(groups[w]) for w in sorted(groups, reverse=True)}


def highest_weight_vectors(
    mod: ExplicitModule,
) -> list[tuple[WeightVec, list[SparseVec]]]:
    """Joint kernel of all raising generators, listed weight by weight.

    Returns (weight, kernel basis vectors) pairs, weights descending,
    kernel vectors as sparse dicts in the module's basis coordinates.
    Only weights with a nonzero kernel appear.
    """
    result = []
    for w, idxs in weight_decompose(mod).items():
        rows_by_key: dict[tuple[int, int], dict[int, Scalar]] = {}
        for pos, idx in enumerate(idxs):
            for i, mat in enumerate(mod.E):
                for r, v in mat.column(idx).items():
                    rows_by_key.setdefault((i, r), {})[pos] = v
        basis, _ = kernel(list(rows_by_key.values()), len(idxs))
        if basis:
            vectors = [{idxs[t]: val for t, val in vec.items()} for vec in basis]
            result.append((w, vectors))
    return result


def decompose(
    mod: ExplicitModule, *, size_guard: int | None = DEFAULT_SIZE_GUARD
) -> Decomposition:
    """Multiplicities of irreducibles, from highest-weight vector counts.

    Cross-checks that the multiplicities account for the full dimension;
    failure raises InvariantViolation since it means the input matrices
    do not define a genuine module.
    """
    mults: dict[WeightVec, int] = {}
    for w, vectors in highest_weight_vectors(mod):
        if not is_dominant(w):
            raise InvariantViolation(
                f"highest-weight vector found at non-dominant weight {w}"
            )
        mults[w] = len(vectors)
    total = sum(m * dim_irrep(w, mod.n, size_guard=size_guard) for w, m in mults.items())
    if total != mod.dim:
        raise InvariantViolation(
            f"multiplicities account for dimension {total}, module has {mod.dim}"
        )
    return Decomposition(n=mod.n, multiplicities=mults)


def verify_chevalley_relations(mod: ExplicitModule) -> None:
    """Check weight shifts and the [E_i, F_i] = H_i relation on every basis
    vector, exactly.  Raises InvariantViolation on any failure."""
    n = mod.n
    for i in range(n - 1):
        alpha = simple_root(i, n)
        for idx in range(mod.dim):
            w = mod.basis_weights[idx]
            for name, mat, target in (
                ("E", mod.E[i], weight_sum(w, alpha)),
                ("F", mod.F[i], weight_diff(w, alpha)),
            ):
                if any(mod.basis_weights[r] != target for r in mat.column(idx)):
                    raise InvariantViolation(
                        f"{name}_{i} maps weight {w} outside weight {target}"
                    )
            h = w[i] - w[i + 1]
            if bracket_column(mod.E[i], mod.F[i], idx) != ({idx: h} if h else {}):
                raise InvariantViolation(
                    f"[E_{i}, F_{i}] fails on basis vector {idx} of weight {w}"
                )


def irrep_plucker(lam, n: int) -> ExplicitModule:
    """The irreducible with highest weight lam (a partition), constructed
    inside a tensor product of exterior powers.

    One exterior-power factor per column of the diagram of lam; the
    highest vector is the tensor of top wedges e_1 ^ ... ^ e_h over the
    columns.  Its closure under the lowering generators is computed with
    exact echelon reduction, one weight space at a time; the resulting
    reduced echelon bases are canonical, so the output is deterministic.
    The generators are restricted to that span by submodule.
    """
    shape = as_partition(lam)
    if len(shape) > n:
        raise ValueError(f"partition {shape} has more than n={n} parts")
    check_dimension(max(shape, default=0))  # one factor per column
    heights = conjugate(shape)
    if not heights:
        return sym_power(0, n)
    factors = [ext_power(h, n) for h in heights]
    ambient = functools.reduce(tensor, factors)
    top_weight = pad(shape, n)
    bases: dict[WeightVec, EchelonBasis] = {}
    start = bases.setdefault(top_weight, EchelonBasis()).insert({0: 1})
    queue: deque[tuple[WeightVec, dict]] = deque([(top_weight, start)])
    while queue:
        w, vec = queue.popleft()
        for i in range(n - 1):
            image = ambient.F[i].apply(vec)
            if not image:
                continue
            tw = weight_diff(w, simple_root(i, n))
            stored = bases.setdefault(tw, EchelonBasis()).insert(image)
            if stored is not None:
                queue.append((tw, stored))
    return submodule(
        n, bases, [m.apply for m in ambient.E], [m.apply for m in ambient.F]
    )


def submodule(n: int, spaces: dict[WeightVec, EchelonBasis], E, F) -> ExplicitModule:
    """The gl(n) module on a weight-graded subspace of an ambient module.

    spaces maps each weight to an EchelonBasis of its weight space in
    ambient coordinates; E[i] and F[i] map a sparse ambient vector to its
    image under the i-th raising and lowering generator.  The basis is
    each space's rows in pivot order, weights descending.  Every image is
    expanded exactly in the space of its target weight: an image outside
    that span, or with a target weight that has no space, raises
    InvariantViolation, since then the spaces are not a submodule.
    """
    position: dict[WeightVec, dict[int, int]] = {}
    vectors: list[SparseVec] = []
    weights: list[WeightVec] = []
    for w in sorted((w for w in spaces if spaces[w].rows), reverse=True):
        rows = spaces[w].rows
        position[w] = {p: len(vectors) + k for k, p in enumerate(sorted(rows))}
        vectors.extend(rows[p] for p in position[w])
        weights.extend([w] * len(rows))
    dim = len(vectors)

    def restricted(maps, shift) -> tuple[RatMat, ...]:
        mats = []
        for i, apply in enumerate(maps):
            alpha = simple_root(i, n)
            entries = []
            for col, (w, vec) in enumerate(zip(weights, vectors)):
                image = apply(vec)
                if not image:
                    continue
                tw = shift(w, alpha)
                if tw not in position:
                    raise InvariantViolation(
                        f"generator image at weight {tw} leaves the submodule"
                    )
                at = position[tw]
                for p, coeff in spaces[tw].coords(image).items():
                    entries.append((at[p], col, coeff))
            mats.append(RatMat.from_entries(dim, dim, entries))
        return tuple(mats)

    return ExplicitModule(
        n, dim, tuple(weights), restricted(E, weight_sum), restricted(F, weight_diff)
    )
