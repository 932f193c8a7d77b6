"""Explicit gl(n) modules with exact rational generator matrices.

A module is a finite basis, one weight per basis vector, and sparse
matrices for the Chevalley raising and lowering generators (E_i has a 1
in entry (i, i+1) on the standard module; F_i is its transpose).  All
constructors act by derivations on symmetric, exterior, and tensor
products, so the defining commutation relations hold exactly over the
rationals, not just numerically.

One builder, _labelled_module, makes a module from its labelled basis,
the weights, and what a generator does to one basis label: monomials
(sym_power), multisets of wedge subsets (_sym_ext_power, through
_move_images, which the skew Howe wedge applies to its subsets too;
ext_power is its one-subset case) and matrix units (adjoint_module,
bracketed on labels).
A wedge basis vector's only name is its subset's int bitmask, bit p for
factor p; wedge_replace, the one place wedge signs are computed, flips
two bits and takes the sign from the popcount of the bits between them.
tensor lifts its factors' matrices instead: on a labelled basis it ran
twice as slow.  It builds whole products for decompose; irrep_plucker's
ambient is never built, and its generators act as a Kronecker sum of two
tensor-built blocks.  That ambient has one factor Sym^a(Lambda^k C^n) per
distinct column height k of the shape, a the number of such columns
(_sym_ext_power): a label is a sorted tuple of a indices into
Lambda^k's basis, its vector the sum of the label's rearrangements, and
its terms come from _move_images, so the signs are still wedge_replace's.

submodule builds the module generated under the lowering generators by
seed spaces, one echelon basis per weight, and restricts the ambient
generators to it in the same pass: it visits the weights in descending
order, so each weight space is final before any image of it is expanded,
and it applies each generator at most once per basis vector, only where
it can move a factor.  Every raising image is expanded exactly, so
closure under E stays checked.  Both
constructions of an irreducible end with it: irrep_plucker seeds it with
the highest vector alone, and skewhowe.induced_gln_module with every hom
space, then checks that nothing was added, which is closure under F.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from collections import namedtuple
from math import comb, prod

from .characters import DEFAULT_SIZE_GUARD, dim_irrep
from .errors import InvariantViolation, check_dimension, max_dimension
from .linalg import (
    EchelonBasis, RatMat, Scalar, SparseVec, bracket_column, kernel, kronecker_sum
)
from .weights import (
    WeightVec,
    as_partition,
    compositions,
    is_dominant,
    pad,
    simple_root,
    weight_diff,
    weight_sum,
)


class ExplicitModule(namedtuple("ExplicitModule", "n dim basis_weights E F")):
    """A gl(n) module given by basis weights and generator matrices.

    E[i] and F[i] are the matrices (RatMat) of the i-th raising and
    lowering generators, 0-indexed, acting on column vectors in the
    stored basis.
    """

    __slots__ = ()


class Decomposition(namedtuple("Decomposition", "n multiplicities")):
    """Multiset of highest weights with multiplicities, keyed by weight."""

    __slots__ = ()


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


def _labelled_module(n: int, basis, weights, images) -> ExplicitModule:
    """The gl(n) module on a labelled basis: column t is basis[t], of
    weight weights[t], and images(label, move) lists the (coefficient,
    image label) terms of one generator applied to one basis label.
    Repeated terms are summed.
    """
    index = {label: t for t, label in enumerate(basis)}
    dim = len(basis)

    def entries(move: Move):
        for t, label in enumerate(basis):
            for coeff, image in images(label, move):
                yield index[image], t, coeff

    def matrices(raising: bool) -> tuple[RatMat, ...]:
        moves = _moves(n, True, raising)
        return tuple(RatMat.from_entries(dim, dim, entries(move)) for move in moves)

    return ExplicitModule(n, dim, tuple(weights), matrices(True), matrices(False))


def standard_module(n: int) -> ExplicitModule:
    """The vector representation on C^n."""
    return ext_power(1, n)


def sym_power(k: int, n: int) -> ExplicitModule:
    """Sym^k(C^n) on the monomial basis, generators acting as derivations."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    if k < 0:
        raise ValueError(f"bad symmetric power parameters k={k}, n={n}")
    check_dimension(n)  # before the binomial, which grows with n
    check_dimension(comb(k + n - 1, n - 1))
    basis = list(compositions(k, n))

    def images(a: WeightVec, move: Move) -> list[tuple[int, WeightVec]]:
        _, frm, to = move  # a[frm] ways to turn one factor e_frm into e_to
        if not a[frm]:
            return []
        return [(a[frm], tuple(x - (j == frm) + (j == to) for j, x in enumerate(a)))]

    return _labelled_module(n, basis, basis, images)


# Wedge factors are pairs (i, a) numbered i*m + a; with m = 1 they are
# just the indices i.  A subset is a bitmask: bit p is set when factor p
# is in it, so factor i*m + a is bit a of the subset's m-bit row i.
Subset = int


def _mask(factors) -> Subset:
    """The subset holding the given distinct factors."""
    return sum(1 << p for p in factors)


def wedge_replace(subset: Subset, old: int, new: int) -> tuple[int, Subset] | None:
    """Replace factor old of a wedge subset by new, tracking the parity sign.

    Returns (sign, image subset), or None when new is already a factor.
    The sign is the parity of the number of factors strictly between old
    and new, the ones new passes on its way to its sorted place: the
    popcount of the subset under a mask of the bits between them.
    """
    if subset >> new & 1:
        return None
    lo, hi = (old, new) if old < new else (new, old)
    crossings = (subset & ((1 << hi) - (2 << lo))).bit_count()
    return (-1 if crossings & 1 else 1), subset ^ (1 << old) ^ (1 << new)


def _move_images(subset: Subset, m: int, move: Move) -> list[tuple[int, Subset]]:
    """(sign, image subset) terms of one generator applied to one wedge
    basis vector: one term per factor in the source row or column that
    does not collide.  The row's m bits, or the column's bits m apart,
    are visited in ascending order."""
    along_rows, frm, to = move
    if along_rows:
        shift = (to - frm) * m
        sources = range(frm * m, frm * m + m)
    else:
        shift = to - frm
        sources = range(frm, subset.bit_length(), m)
    out = []
    for p in sources:
        if subset >> p & 1:
            hit = wedge_replace(subset, p, p + shift)
            if hit is not None:
                out.append(hit)
    return out


def ext_power(k: int, n: int) -> ExplicitModule:
    """Lambda^k(C^n), one basis vector per k-subset of {0, ..., n-1} in
    lex order: Sym^1(Lambda^k C^n), as _sym_ext_power builds it."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    if not 0 <= k <= n:
        raise ValueError(f"bad exterior power parameters k={k}, n={n}")
    check_dimension(n)  # before the binomial, which grows with n
    check_dimension(comb(n, k))
    return _sym_ext_power(1, k, n)


def _sym_ext_power(a: int, k: int, n: int) -> ExplicitModule:
    """Sym^a(Lambda^k C^n) on the orbit-sum basis.

    A label is a sorted tuple of a indices into ext_power(k, n)'s basis,
    and its vector is the sum of the label's distinct rearrangements in
    the a-th tensor power of Lambda^k.  Labels are in lex order, which is
    compositions(a, C(n, k)) order on their count vectors.  A generator
    moves one index s to s' with Lambda^k's own sign c (_move_images),
    and the image label gets c times the number of times s' occurs in
    it: the target's multiplicity, where sym_power's monomials take the
    source's.  ext_power(k, n) is the case a = 1.
    A label holds a indices, not a count per Lambda^k basis vector, so
    a = 1 costs what Lambda^k does however large C(n, k) is.
    """
    subsets = [_mask(c) for c in itertools.combinations(range(n), k)]
    position = {s: t for t, s in enumerate(subsets)}
    basis = list(itertools.combinations_with_replacement(range(len(subsets)), a))

    def images(label: tuple[int, ...], move: Move) -> list[tuple[int, tuple[int, ...]]]:
        out = []
        for i, t in enumerate(label):
            if i and label[i - 1] == t:
                continue  # equal indices give equal terms, counted below
            rest = label[:i] + label[i + 1:]
            for sign, image in _move_images(subsets[t], 1, move):
                u = position[image]
                target = tuple(sorted(rest + (u,)))
                out.append((sign * target.count(u), target))
        return out

    weights = tuple(
        tuple(sum(subsets[t] >> j & 1 for t in label) for j in range(n))
        for label in basis
    )
    return _labelled_module(n, basis, weights, images)


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
    return _labelled_module(n, basis, weights, images)


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
        basis = kernel(list(rows_by_key.values()), len(idxs))
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
    inside the Borel-Weil ambient, a tensor product of symmetric powers
    of exterior powers.

    lam has a_k = lam_k - lam_(k+1) columns of height k, and the ambient
    has one factor Sym^(a_k)(Lambda^k C^n) per distinct height, tallest
    first, on the orbit-sum basis (_sym_ext_power); a_k = 1 gives
    Lambda^k itself.  The highest vector is the tensor of the a_k-th
    powers of the top wedges e_1 ^ ... ^ e_k, label 0 of each factor.
    Each label maps to the sum of its rearrangements in the tensor
    product of one exterior power per column, and that sum's least key
    there is the sorted label with coefficient 1, met by no other label;
    so this map sends each reduced echelon row to a reduced echelon row
    of that larger ambient, and the module, its basis order and its
    matrices are the same in both.  The ambient product is an index space
    that is never built: vectors are sparse in tensor's basis order, and
    the generators act on them through _kronecker_generators.  The guard,
    read height by height off lam, bounds the larger ambient, the product
    of C(n, k) over the columns, which is at least the product of
    C(C(n, k) + a_k - 1, a_k) over the heights.  submodule, seeded with the
    highest vector alone, builds its closure under the lowering
    generators in one descending pass over the weights, one exact
    echelon basis per weight, and restricts E and F to it as it goes, so
    each generator is applied at most once per basis vector.  The reduced
    echelon bases are canonical, so the output is deterministic.
    """
    shape = as_partition(lam)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        raise ValueError("rank must be at least 1")
    if len(shape) > n:
        raise ValueError(f"partition {shape} has more than n={n} parts")
    check_dimension(max(shape, default=0))  # lambda_1 columns
    if not shape:
        return sym_power(0, n)
    # the running product over the columns, tallest first, is checked
    # before any factor is built; a factor C(n, k) >= 2 exceeds the guard
    # within its bit length of columns, and a factor of 1 changes nothing
    check_dimension(n)  # before the binomials, which grow with n
    most = max_dimension().bit_length()
    below = shape[1:] + (0,)
    dim, runs = 1, []
    for k in range(len(shape), 0, -1):
        a = shape[k - 1] - below[k - 1]  # the columns of height k
        for _ in range(min(a, most)):
            dim *= comb(n, k)
            check_dimension(dim)
        if a:
            runs.append((a, k))
    E, F = _kronecker_generators([_sym_ext_power(a, k, n) for a, k in runs])
    top = EchelonBasis()
    top.insert({0: 1})
    return submodule(n, {pad(shape, n): top}, E, F)


def _kronecker_generators(factors: list[ExplicitModule]):
    """E_i and F_i of functools.reduce(tensor, factors) as maps on sparse
    vectors in its basis order, without building that product.

    The factors split into two contiguous runs whose dimensions are as
    close as possible; each run is built with tensor, and a generator g
    acts as the Kronecker sum g (x) 1 + 1 (x) g of the runs' matrices.
    A single factor is paired with the trivial module.  irrep_plucker
    passes one factor per distinct column height; the tests pass one
    exterior power per column to rebuild its larger ambient as a referee.
    """
    dims = [f.dim for f in factors]
    split = min(
        range(1, len(factors) + 1),
        key=lambda k: abs(prod(dims[:k]) - prod(dims[k:])),
    )
    a = functools.reduce(tensor, factors[:split])
    b = functools.reduce(tensor, factors[split:] or [sym_power(0, a.n)])
    return (
        [kronecker_sum(x, y) for x, y in zip(a.E, b.E)],
        [kronecker_sum(x, y) for x, y in zip(a.F, b.F)],
    )


def submodule(n: int, spaces: dict[WeightVec, EchelonBasis], E, F) -> ExplicitModule:
    """The gl(n) module generated by spaces under the lowering generators,
    with E and F restricted to it.

    spaces maps weights to EchelonBasis seeds in ambient coordinates;
    E[i] and F[i] map a sparse ambient vector to its image under the i-th
    raising and lowering generator.  Every ambient weight must be
    nonnegative, each entry counting the factors at one index, as in
    tensor products of Sym^a(Lambda^k C^n) and in the skew Howe wedge:
    then E_i kills weight w when w[i+1] == 0 and F_i kills it when
    w[i] == 0, so those images are zero and never computed.

    One pass visits the weights in descending lexicographic order.
    w + alpha_i is greater than w, so the spaces above w are final when
    w is reached.  A weight with rows queues each w - alpha_i with
    w[i] > 0, noting i there.  At w the pass inserts the F_i images of
    the rows at each noted w + alpha_i, in ascending i, into w's space,
    then reads each image's coordinates off w's final pivot columns: a
    member v of an RREF span is sum_p v[p] * row_p, and the insert has
    just put v in the span.  Each E_i image of w's rows with w[i+1] > 0
    is expanded exactly in the space at w + alpha_i; an image outside
    that span, or at a weight with no space, raises InvariantViolation,
    since then the generated spaces are not closed under E.  Each
    generator is applied at most once per basis vector.

    The basis is each space's rows in pivot order, weights descending.
    The pass pops each weight's seeds from spaces and drops its rows once
    every weight below it that reads them is done, so spaces is empty
    afterwards: a caller that compares the result with its seeds takes
    their sizes before the call.
    """
    roots = [simple_root(i, n) for i in range(n - 1)]
    heap = [tuple(-x for x in w) for w in spaces]  # max-heap of weights
    heapq.heapify(heap)
    queued: dict[WeightVec, list[int]] = {w: [] for w in spaces}  # the noted i
    # the spaces still read from below, descending, with each pivot's
    # basis position
    live: dict[WeightVec, tuple[EchelonBasis, dict[int, int]]] = {}
    weights: list[WeightVec] = []
    e_cols: list[dict[int, SparseVec]] = [{} for _ in roots]
    f_cols: list[dict[int, SparseVec]] = [{} for _ in roots]
    while heap:
        w = tuple(-x for x in heapq.heappop(heap))
        space = spaces.pop(w, None) or EchelonBasis()
        pulled = []
        for i in queued.pop(w):
            source, source_at = live[weight_sum(w, roots[i])]
            for p, col in source_at.items():
                image = F[i](source.rows[p])
                if image:
                    space.insert(image)
                    pulled.append((i, col, image))
        if space.rows:
            pivots = sorted(space.rows)
            at = {p: len(weights) + k for k, p in enumerate(pivots)}
            weights.extend([w] * len(pivots))
            for i, col, image in pulled:
                f_cols[i][col] = {at[p]: image[p] for p in pivots if p in image}
            for i, alpha in enumerate(roots):
                if w[i + 1]:
                    tw = weight_sum(w, alpha)
                    for p, col in at.items():
                        image = E[i](space.rows[p])
                        if not image:
                            continue
                        if tw not in live:
                            raise InvariantViolation(
                                f"generator image at weight {tw} leaves the submodule"
                            )
                        target, target_at = live[tw]
                        e_cols[i][col] = {
                            target_at[q]: c for q, c in target.coords(image).items()
                        }
                if w[i]:
                    below = weight_diff(w, alpha)
                    if below not in queued:
                        heapq.heappush(heap, tuple(-x for x in below))
                    queued.setdefault(below, []).append(i)
            live[w] = space, at
        # a space is read by at most the n - 1 weights u - alpha_i below
        # it, the least of which is u - alpha_0; once that is passed, drop it
        for u in list(live):
            if roots and weight_diff(u, roots[0]) < w:
                break
            del live[u]
    dim = len(weights)
    return ExplicitModule(
        n,
        dim,
        tuple(weights),
        tuple(RatMat(dim, dim, cols) for cols in e_cols),
        tuple(RatMat(dim, dim, cols) for cols in f_cols),
    )
