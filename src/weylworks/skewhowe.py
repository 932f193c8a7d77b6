"""Commuting gl(n) x gl(m) actions on Lambda^N(C^n (x) C^m).

The wedge basis is indexed by sorted N-subsets of the nm pairs (i, a),
pair (i, a) numbered i*m + a, and a subset's ambient index is its rank in
lexicographic order.  Both generator families act by derivations through
the wedge action shared with glmodules.ext_power (glmodules.wedge_generators).

A bi-weight slice (gl(n) weight mu, gl(m) weight lam) is the set of 0/1
n x m matrices with row sums mu and column sums lam (Howe, "Remarks on
classical invariant theory", Trans. AMS 1989).  Hom spaces, joint
highest-weight lines and the induced gl(n) module are computed from their
slices alone: the slice is enumerated directly, generators are applied to
subsets on the fly, and the whole wedge is never built.  The dimension
guard (WEYLWORKS_MAX_DIM) applies to each slice there.

The induced module takes each hom space, in reduced echelon form, as its
weight space mu and restricts the gl(n) generators to them through
glmodules.submodule, the same step that ends irrep_plucker.

hom_dims, which crossval reads, needs only the dimensions.  A row
permutation sigma of C^n commutes with gl(m) and carries the (mu, lam)
slice onto the (sigma mu, lam) slice, so it eliminates once per S_n
orbit, at the sorted mu, through hom_space.  Every other mu still gets
its own slice and raising rows, and they are checked entry by entry
against the sorted mu's rows carried over by sigma: the dimension is
proved by that check, not assumed from Weyl symmetry.

build_bimodule is cheap: BiModule's basis, weights and generator matrices
are built on first access, and only then is C(nm, N) checked against the
guard.  verify_commuting_actions, gln_module and glm_module need them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb

from .characters import DEFAULT_SIZE_GUARD, dim_irrep
from .errors import InvariantViolation, check_dimension, max_dimension
from .glmodules import (
    ExplicitModule,
    Move,
    Subset,
    _move_images,
    _moves,
    _rank,
    submodule,
    wedge_generators,
)
from .linalg import EchelonBasis, RatMat, Scalar, SparseVec, kernel, vec_add_scaled
from .weights import (
    WeightVec,
    as_partition,
    compositions,
    conjugate,
    pad,
    partitions,
)

def _slice(n: int, m: int, wn, wm) -> tuple[Subset, ...]:
    """Sorted subsets with gl(n) weight wn and gl(m) weight wm, in
    lexicographic order.

    Rows are filled in turn, choosing wn[i] columns that still have
    capacity; a column needing more ones than rows remain is pruned.
    Partial fillings wait on a work list, children pushed in reverse so
    that they come off in lexicographic order (no recursion, so n may
    pass the recursion limit).  Refused as soon as the count passes the
    dimension guard.
    """
    if len(wn) != n or len(wm) != m or any(x < 0 for x in (*wn, *wm)):
        return ()
    cap = max_dimension()
    found: list[Subset] = []
    work = [(0, (), tuple(wm))]
    while work:
        i, prefix, remaining = work.pop()
        if i == n:
            found.append(prefix)
            if len(found) > cap:
                check_dimension(len(found))
            continue
        rows_after = n - 1 - i
        open_cols = [a for a in range(m) if remaining[a]]
        children = []
        for cols in itertools.combinations(open_cols, wn[i]):
            left = list(remaining)
            for a in cols:
                left[a] -= 1
            if max(left, default=0) <= rows_after:
                pairs = tuple(i * m + a for a in cols)
                children.append((i + 1, prefix + pairs, tuple(left)))
        work.extend(reversed(children))
    return tuple(found)


@dataclass(frozen=True)
class BiModule:
    """Lambda^N(C^n (x) C^m); everything but its size is built on demand.

    basis holds the sorted N-subsets of pair indices in lexicographic
    order; the weights and the four generator families follow it.  The
    first access checks dim against WEYLWORKS_MAX_DIM.
    """

    n: int
    m: int
    N: int
    dim: int

    @cached_property
    def basis(self) -> tuple[Subset, ...]:
        check_dimension(self.dim)
        return tuple(itertools.combinations(range(self.n * self.m), self.N))

    @cached_property
    def gln_weights(self) -> tuple[WeightVec, ...]:
        return tuple(
            tuple(sum(1 for p in s if p // self.m == i) for i in range(self.n))
            for s in self.basis
        )

    @cached_property
    def glm_weights(self) -> tuple[WeightVec, ...]:
        return tuple(
            tuple(sum(1 for p in s if p % self.m == a) for a in range(self.m))
            for s in self.basis
        )

    def _family(self, moves: list[Move]) -> tuple[RatMat, ...]:
        return wedge_generators(self.basis, self.n * self.m, self.m, moves)

    @cached_property
    def En(self) -> tuple[RatMat, ...]:
        return self._family(_moves(self.n, True, True))

    @cached_property
    def Fn(self) -> tuple[RatMat, ...]:
        return self._family(_moves(self.n, True, False))

    @cached_property
    def Em(self) -> tuple[RatMat, ...]:
        return self._family(_moves(self.m, False, True))

    @cached_property
    def Fm(self) -> tuple[RatMat, ...]:
        return self._family(_moves(self.m, False, False))

    def gln_module(self) -> ExplicitModule:
        return ExplicitModule(self.n, self.dim, self.gln_weights, self.En, self.Fn)

    def glm_module(self) -> ExplicitModule:
        return ExplicitModule(self.m, self.dim, self.glm_weights, self.Em, self.Fm)


@dataclass(frozen=True)
class HomSpace:
    """Joint kernel of the gl(m) raising operators in one bi-weight slice.

    vectors are a kernel basis, as sparse dicts in the ambient wedge
    basis; only their span is meaningful.  slice_indices are the ambient
    indices of the slice, ascending, and subsets the wedge basis vectors
    they name, so a gl(n) generator can act on a vector subset by subset.
    """

    lam: tuple[int, ...]
    mu: WeightVec
    dim: int
    vectors: tuple[dict[int, Scalar], ...]
    slice_indices: tuple[int, ...]
    subsets: tuple[Subset, ...]


def build_bimodule(n: int, m: int, N: int) -> BiModule:
    """Lambda^N(C^n (x) C^m); basis and generators are built on first use.

    WEYLWORKS_MAX_DIM guards what is actually built: C(nm, N) when the
    basis or generator matrices are first touched, each slice's size in
    hom_space.
    """
    if n < 1 or m < 1:
        raise ValueError("both ranks must be at least 1")
    if not 0 <= N <= n * m:
        raise ValueError(f"N={N} outside 0..{n * m}")
    return BiModule(n=n, m=m, N=N, dim=comb(n * m, N))


def verify_commuting_actions(bim: BiModule) -> None:
    """Check that every gl(n) generator commutes with every gl(m) generator,
    as exact matrices.  Raises InvariantViolation on failure."""
    for label_x, x in [("En", g) for g in bim.En] + [("Fn", g) for g in bim.Fn]:
        for label_y, y in [("Em", g) for g in bim.Em] + [("Fm", g) for g in bim.Fm]:
            if not (x @ y - y @ x).is_zero():
                raise InvariantViolation(
                    f"{label_x} and {label_y} fail to commute on the wedge module"
                )


def _stacked_rows(
    m: int, subsets: tuple[Subset, ...], moves: list[Move]
) -> dict[tuple[int, Subset], SparseVec]:
    """The stacked generators on the span of subsets (one slice), one row
    per (generator number, image subset), keyed by position in subsets."""
    rows: dict[tuple[int, Subset], SparseVec] = {}
    for pos, s in enumerate(subsets):
        for move_no, move in enumerate(moves):
            for sign, image in _move_images(s, m, move):
                rows.setdefault((move_no, image), {})[pos] = sign
    return rows


def _joint_kernel(
    m: int, subsets: tuple[Subset, ...], moves: list[Move]
) -> list[SparseVec]:
    """Kernel basis of the stacked generators on the span of subsets (one
    slice), keyed by position in subsets."""
    return kernel(list(_stacked_rows(m, subsets, moves).values()), len(subsets))[0]


def decompose_howe(
    n: int,
    m: int,
    N: int,
    *,
    size_guard: int | None = DEFAULT_SIZE_GUARD,
) -> list[tuple[WeightVec, WeightVec]]:
    """Summands of Lambda^N(C^n (x) C^m) as (gl(n) weight, gl(m) weight) pairs.

    One pair per partition lam of N with at most m parts, each part at
    most n; the gl(n) side is the conjugate.  Two checks always run: the
    dimension identity against binomial(nm, N), with size_guard bounding
    the tableau count of dim_irrep, and exactly one joint highest-weight
    line in each pair's bi-weight slice (a slice that holds a single 0/1
    matrix, so the check is cheap).
    """
    if n < 1 or m < 1 or not 0 <= N <= n * m:
        raise ValueError(f"bad decomposition parameters n={n}, m={m}, N={N}")
    pairs = [
        (pad(conjugate(lam), n), pad(lam, m))
        for lam in partitions(N, max_parts=m, max_part=n)
    ]
    pairs.sort(key=lambda p: p[1], reverse=True)
    guard = {"size_guard": size_guard}
    total = sum(dim_irrep(wn, n, **guard) * dim_irrep(wm, m, **guard) for wn, wm in pairs)
    if total != comb(n * m, N):
        raise InvariantViolation(
            f"summand dimensions add to {total}, wedge has {comb(n * m, N)}"
        )
    bim = build_bimodule(n, m, N)
    for wn, wm in pairs:
        found = joint_highest_weight_dim(bim, wn, wm)
        if found != 1:
            raise InvariantViolation(
                f"expected one joint highest-weight line at {(wn, wm)}, "
                f"found {found}"
            )
    return pairs


def joint_highest_weight_dim(bim: BiModule, wn, wm) -> int:
    """Dimension of the space of vectors of bi-weight (wn, wm) killed by all
    raising operators of both families.

    Rows after the last nonzero entry of wn hold no pair, so no raising
    operator has an image from them; the slice and the gl(n) moves are
    taken over the rows up to that entry only, which keeps the slice and
    the moves small when wn has few nonzero rows, however large n is.
    """
    if len(wn) != bim.n:
        return 0
    rows = max((i + 1 for i, x in enumerate(wn) if x), default=1)
    moves = _moves(rows, True, True) + _moves(bim.m, False, True)
    subsets = _slice(rows, bim.m, tuple(wn)[:rows], wm)
    return len(_joint_kernel(bim.m, subsets, moves))


def hom_space(bim: BiModule, lam, mu) -> HomSpace:
    """Vectors of gl(m) weight lam and gl(n) weight mu killed by the gl(m)
    raising operators.

    lam must be a partition of N with at most m parts; mu a nonnegative
    integer vector of length n summing to N.
    """
    shape = as_partition(lam)
    mu = tuple(int(x) for x in mu)
    if len(mu) != bim.n:
        raise ValueError(f"mu must have length n={bim.n}, got {mu}")
    if any(x < 0 for x in mu):
        raise ValueError(f"mu must be nonnegative, got {mu}")
    if sum(shape) != bim.N or sum(mu) != bim.N:
        raise ValueError(
            f"|lam| and |mu| must both equal N={bim.N}, got {sum(shape)} and {sum(mu)}"
        )
    if len(shape) > bim.m:
        raise ValueError(f"partition {shape} has more than m={bim.m} parts")
    subsets = _slice(bim.n, bim.m, mu, pad(shape, bim.m))
    slice_idx = tuple(_rank(s, bim.n * bim.m) for s in subsets)
    basis = _joint_kernel(bim.m, subsets, _moves(bim.m, False, True))
    vectors = tuple({slice_idx[t]: v for t, v in vec.items()} for vec in basis)
    return HomSpace(
        lam=shape,
        mu=mu,
        dim=len(vectors),
        vectors=vectors,
        slice_indices=slice_idx,
        subsets=subsets,
    )


def hom_dims(bim: BiModule, lam) -> dict[WeightVec, int]:
    """hom_space(bim, lam, mu).dim for every composition mu of N into n
    parts, in the order of weights.compositions.

    Only the sorted mu of each S_n orbit goes through hom_space.  Every
    other mu has its own slice and raising rows built, and
    _certify_carried checks that they are the sorted mu's rows carried
    over by a row permutation; matrices equal up to a reordering of rows
    and columns have kernels of equal dimension.
    """
    shape = as_partition(lam)
    moves = _moves(bim.m, False, True)
    orbits: dict[WeightVec, list[WeightVec]] = {}
    for mu in compositions(bim.N, bim.n):
        orbits.setdefault(tuple(sorted(mu, reverse=True)), []).append(mu)
    dims: dict[WeightVec, int] = {}
    for rep, members in orbits.items():
        hs = hom_space(bim, shape, rep)
        dims[rep] = hs.dim
        if len(members) == 1:
            continue
        wm = pad(shape, bim.m)
        rep_rows = _stacked_rows(bim.m, hs.subsets, moves)
        for mu in members:
            if mu == rep:
                continue
            subsets = _slice(bim.n, bim.m, mu, wm)
            rows = _stacked_rows(bim.m, subsets, moves)
            _certify_carried(bim.m, rep, hs.subsets, rep_rows, mu, subsets, rows)
            dims[mu] = hs.dim
    return {mu: dims[mu] for mu in compositions(bim.N, bim.n)}


def _certify_carried(
    m: int,
    rep: WeightVec,
    rep_subsets: tuple[Subset, ...],
    rep_rows: dict[tuple[int, Subset], SparseVec],
    mu: WeightVec,
    subsets: tuple[Subset, ...],
    rows: dict[tuple[int, Subset], SparseVec],
) -> None:
    """Check that mu's slice and stacked rows are rep's, carried over by
    the row permutation sigma with mu[sigma(i)] = rep[i] (equal parts
    keep their order).  Raises InvariantViolation on any mismatch.

    Every subset of the slice, and every image of one under a gl(m)
    raising move, has rep[i] pairs in row i, so sigma moves whole blocks
    of fixed positions: the carried subset is read off by one fixed
    reordering of positions and a relabelling of pairs, with no sort.
    The wedge sign of that reordering depends only on the block sizes,
    so it is the same on every column and row and cancels.  The check
    compares positions, keys and values; the reading of the carried
    subset is injective, so equal counts make both maps bijections.
    """
    n = len(rep)
    # a stable sort of mu's rows by descending part lists sigma(0), sigma(1), ...
    sigma = sorted(range(n), key=lambda j: -mu[j])
    # block i of a subset starts at position starts[i]; the carried subset
    # lists the blocks in the order of their new rows
    starts = list(itertools.accumulate(rep, initial=0))
    order = [
        k for i in sorted(range(n), key=sigma.__getitem__)
        for k in range(starts[i], starts[i + 1])
    ]
    relabel = [sigma[p // m] * m + p % m for p in range(n * m)].__getitem__

    def carried(s: Subset) -> Subset:
        return tuple(map(relabel, map(s.__getitem__, order)))

    def fail(what: str) -> InvariantViolation:
        return InvariantViolation(
            f"hom space at mu={mu} is not the one at its sorted "
            f"representative {rep} carried over by a row permutation: {what}"
        )

    if len(subsets) != len(rep_subsets):
        raise fail(f"slice has {len(subsets)} subsets, expected {len(rep_subsets)}")
    if len(rows) != len(rep_rows):
        raise fail(f"{len(rows)} raising rows, expected {len(rep_rows)}")
    where = {s: t for t, s in enumerate(subsets)}
    position = [where.get(carried(s)) for s in rep_subsets]
    if None in position:
        raise fail("a carried subset is missing from the slice")
    for (move_no, image), row in rep_rows.items():
        target = rows.get((move_no, carried(image)))
        if target is None:
            raise fail(f"no raising row for move {move_no} at the carried image")
        if target != {position[t]: v for t, v in row.items()}:
            raise fail(f"raising row for move {move_no} differs from the carried one")


def induced_gln_module(bim: BiModule, lam) -> ExplicitModule:
    """The gl(n) module carried by all hom spaces of one gl(m) weight lam.

    Each hom space, in reduced echelon form, is the weight space mu of
    the module; glmodules.submodule restricts the gl(n) generators to
    them exactly.  The result is the irreducible with highest weight
    conjugate(lam).
    """
    shape = as_partition(lam)
    if sum(shape) != bim.N:
        raise ValueError(f"|lam| must equal N={bim.N}, got {sum(shape)}")
    if len(shape) > bim.m:
        raise ValueError(f"partition {shape} has more than m={bim.m} parts")
    size = bim.n * bim.m
    spaces: dict[WeightVec, EchelonBasis] = {}
    subset_at: dict[int, Subset] = {}
    for mu in compositions(bim.N, bim.n):
        hs = hom_space(bim, shape, mu)
        spaces[mu] = EchelonBasis()
        for vec in hs.vectors:
            spaces[mu].insert(vec)
        subset_at.update(zip(hs.slice_indices, hs.subsets))

    def action(move: Move):
        def apply(vec: SparseVec) -> SparseVec:
            image: SparseVec = {}
            for idx, coeff in vec.items():
                for sign, new in _move_images(subset_at[idx], bim.m, move):
                    vec_add_scaled(image, {_rank(new, size): sign}, coeff)
            return image

        return apply

    return submodule(
        bim.n,
        spaces,
        [action(move) for move in _moves(bim.n, True, True)],
        [action(move) for move in _moves(bim.n, True, False)],
    )
