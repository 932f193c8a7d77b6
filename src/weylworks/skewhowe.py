"""Commuting gl(n) x gl(m) actions on Lambda^N(C^n (x) C^m).

The wedge basis is indexed by N-subsets of the nm pairs (i, a), each an
int bitmask with bit i*m + a for pair (i, a), so row i of its 0/1 n x m
matrix is the mask's m-bit field i.  The mask is the only name of a
wedge basis vector: hom-space vectors are sparse dicts keyed by mask,
and a generator acts on each key directly.  Both generator families act
by derivations through the wedge action shared with glmodules.ext_power
(glmodules.wedge_generators).

A bi-weight slice (gl(n) weight mu, gl(m) weight lam) is the set of 0/1
n x m matrices with row sums mu and column sums lam (Howe, "Remarks on
classical invariant theory", Trans. AMS 1989).  Hom spaces, joint
highest-weight lines and the induced gl(n) module are computed from their
slices alone: the slice is enumerated directly, row by row over the
column capacities each row can leave, and counted before it is built;
generators are applied to subsets on the fly, and the whole wedge is
never built.  The dimension guard (WEYLWORKS_MAX_DIM) applies to each
slice's count, before the slice is built.

The induced module seeds glmodules.submodule, the same pass that ends
irrep_plucker, with every hom space in reduced echelon form as its
weight space mu.  The pass checks closure under the raising generators;
the module it generates must be no larger than the hom spaces, which is
closure under the lowering ones.

hom_dims, which crossval reads, needs only the dimensions.  A row
permutation sigma of C^n commutes with gl(m) and carries the (mu, lam)
slice onto the (sigma mu, lam) slice, so it eliminates once per S_n
orbit, at the sorted mu, through hom_space.  Every other mu still gets
its own slice and raising rows, and one dict comparison checks them
against the sorted mu's rows carried over by sigma: the dimension is
proved by that check, not assumed from Weyl symmetry.

build_bimodule is cheap: BiModule's size C(nm, N), basis, weights and
generator matrices are computed on first access, and only then is the
size checked against the guard.  verify_commuting_actions, gln_module
and glm_module need them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb

from .characters import DEFAULT_SIZE_GUARD, dim_irrep
from .errors import InvariantViolation, check_dimension
from .glmodules import (
    ExplicitModule,
    Move,
    Subset,
    _mask,
    _move_images,
    _moves,
    submodule,
    wedge_generators,
)
from .linalg import (
    EchelonBasis, RatMat, Scalar, SparseVec, bracket_column, kernel, vec_add_scaled
)
from .weights import (
    WeightVec,
    as_partition,
    compositions,
    conjugate,
    pad,
    partitions,
)

def _slice(n: int, m: int, wn, wm) -> tuple[Subset, ...]:
    """Subsets with gl(n) weight wn and gl(m) weight wm, in lexicographic
    order.

    A state is the tuple of column capacities left after some rows; row
    i may take wn[i] columns with capacity, and a state where a column
    needs more ones than rows remain is pruned.  A forward pass records
    the states each row reaches and the row choices between them, a
    backward pass counts each state's completions and drops the dead
    ones, and the count is checked against the dimension guard before
    anything is built.  Completions are then built backward, one row's
    states at a time, by OR-ing each row choice, shifted to its row, onto
    the completions of the state it leads to; choices are tried in
    itertools.combinations order, so the subsets come out in
    lexicographic order.  A row with wn[i] == 0 only drops the states
    with an overfull column; the backward passes skip it.  No recursion,
    so n may pass the recursion limit.
    """
    if len(wn) != n or len(wm) != m or any(x < 0 for x in (*wn, *wm)):
        return ()
    start = tuple(wm)
    # per row: {state: [(row choice as a column mask, next state), ...]}
    rows: list[dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]]] = []
    states = [start]
    for i in range(n):
        rows_after = n - 1 - i
        choices = {}
        if not wn[i]:  # a state goes on as it is unless a column is overfull
            states = [left for left in states if max(left) <= rows_after]
            rows.append(choices)
            continue
        reached = {}
        for left in states:
            out = []
            for cols in itertools.combinations([a for a in range(m) if left[a]], wn[i]):
                after = list(left)
                choice = 0
                for a in cols:
                    after[a] -= 1
                    choice |= 1 << a
                if max(after) <= rows_after:
                    after = tuple(after)
                    out.append((choice, after))
                    reached[after] = None
            choices[left] = out
        rows.append(choices)
        states = list(reached)
    count = dict.fromkeys(states, 1)  # only the all-zero state is reached
    for i in reversed(range(n)):
        if wn[i]:
            for out in rows[i].values():
                out[:] = [(c, after) for c, after in out if after in count]
            count = {
                left: sum(count[after] for _, after in out)
                for left, out in rows[i].items()
                if out
            }
    check_dimension(count.get(start, 0))
    built: dict[tuple[int, ...], list[Subset]] = dict.fromkeys(states, [0])
    for i in reversed(range(n)):
        if wn[i]:
            shift = i * m
            built = {
                left: [c << shift | rest for c, after in out for rest in built[after]]
                for left, out in rows[i].items()
                if out
            }
    return tuple(built.get(start, ()))


@dataclass(frozen=True)
class BiModule:
    """Lambda^N(C^n (x) C^m); everything, its size too, is built on demand.

    basis holds the N-subsets of pair indices, as bitmasks, in
    lexicographic order; the weights and the four generator families
    follow it.  The first access checks dim against WEYLWORKS_MAX_DIM.
    dim is the binomial C(nm, N), which takes seconds for huge ranks, so
    only the whole-wedge views compute it; slices never need it.
    """

    n: int
    m: int
    N: int

    @cached_property
    def dim(self) -> int:
        return comb(self.n * self.m, self.N)

    @cached_property
    def basis(self) -> tuple[Subset, ...]:
        check_dimension(self.dim)
        return tuple(
            map(_mask, itertools.combinations(range(self.n * self.m), self.N))
        )

    @cached_property
    def gln_weights(self) -> tuple[WeightVec, ...]:
        n, m = self.n, self.m
        row = (1 << m) - 1
        return tuple(
            tuple((s >> i * m & row).bit_count() for i in range(n)) for s in self.basis
        )

    @cached_property
    def glm_weights(self) -> tuple[WeightVec, ...]:
        column = _mask(range(0, self.n * self.m, self.m))
        return tuple(
            tuple((s >> a & column).bit_count() for a in range(self.m))
            for s in self.basis
        )

    def _family(self, moves: list[Move]) -> tuple[RatMat, ...]:
        return wedge_generators(self.basis, self.m, moves)

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

    slice_indices are the slice's wedge basis vectors, as bitmasks, in
    lexicographic order.  vectors are a kernel basis, as sparse dicts
    keyed by those bitmasks, so a gl(n) generator can act on a vector
    subset by subset; only their span is meaningful.
    """

    lam: tuple[int, ...]
    mu: WeightVec
    dim: int
    vectors: tuple[dict[Subset, Scalar], ...]
    slice_indices: tuple[Subset, ...]


def build_bimodule(n: int, m: int, N: int) -> BiModule:
    """Lambda^N(C^n (x) C^m); basis and generators are built on first use.

    WEYLWORKS_MAX_DIM guards what is actually built: the ranks at once
    (every weight has n or m entries), C(nm, N) when the basis or
    generator matrices are first touched, each slice's size in hom_space.
    """
    if n < 1 or m < 1:
        raise ValueError("both ranks must be at least 1")
    check_dimension(max(n, m))
    if not 0 <= N <= n * m:
        raise ValueError(f"N={N} outside 0..{n * m}")
    return BiModule(n=n, m=m, N=N)


def verify_commuting_actions(bim: BiModule) -> None:
    """Check that every gl(n) generator commutes with every gl(m) generator
    on every basis vector, exactly.  Raises InvariantViolation naming the
    pair and the first basis vector where they fail."""

    def named(**families) -> list[tuple[str, RatMat]]:
        return [(f"{k}_{i}", g) for k, gs in families.items() for i, g in enumerate(gs)]

    for label_x, x in named(En=bim.En, Fn=bim.Fn):
        for label_y, y in named(Em=bim.Em, Fm=bim.Fm):
            for c in range(bim.dim):
                if bracket_column(x, y, c):
                    raise InvariantViolation(
                        f"{label_x} and {label_y} fail to commute on basis vector "
                        f"{c} of the wedge module"
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
    check_dimension(max(n, m))  # before conjugate(lam) takes n steps
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
    basis = _joint_kernel(bim.m, subsets, _moves(bim.m, False, True))
    vectors = tuple({subsets[t]: v for t, v in vec.items()} for vec in basis)
    return HomSpace(
        lam=shape, mu=mu, dim=len(vectors), vectors=vectors, slice_indices=subsets
    )


def hom_dims(bim: BiModule, lam) -> dict[WeightVec, int]:
    """hom_space(bim, lam, mu).dim for every composition mu of N into n
    parts, in the order of weights.compositions.

    Only the sorted mu of each S_n orbit goes through hom_space.  Every
    other mu has its own slice and raising rows built, and
    _certify_carried compares them, as one dict, with the sorted mu's
    rows carried over by a row permutation; matrices equal up to a
    reordering of rows and columns have kernels of equal dimension.
    """
    shape = as_partition(lam)
    moves = _moves(bim.m, False, True)
    dims = dict.fromkeys(compositions(bim.N, bim.n), 0)
    orbits: dict[WeightVec, list[WeightVec]] = {}
    for mu in dims:
        orbits.setdefault(tuple(sorted(mu, reverse=True)), []).append(mu)
    for rep, members in orbits.items():
        hs = hom_space(bim, shape, rep)
        dims[rep] = hs.dim
        others = [mu for mu in members if mu != rep]
        rep_rows = _stacked_rows(bim.m, hs.slice_indices, moves) if others else {}
        for mu in others:
            subsets = _slice(bim.n, bim.m, mu, pad(shape, bim.m))
            rows = _stacked_rows(bim.m, subsets, moves)
            _certify_carried(bim.m, rep, hs.slice_indices, rep_rows, mu, subsets, rows)
            dims[mu] = hs.dim
    return dims


def _certify_carried(m: int, rep, rep_subsets, rep_rows, mu, subsets, rows) -> None:
    """Check that mu's slice (subsets) and _stacked_rows are rep's,
    carried over by the row permutation sigma with mu[sigma(i)] = rep[i]
    (equal parts keep their order).  Raises InvariantViolation on any
    mismatch.

    carried moves each m-bit row i of a subset to row sigma(i); it is
    injective, so equal slice sizes and no missing carried subset make
    position a bijection, and the dict comparison checks every row key
    and entry.  The wedge sign of sigma depends only on the block sizes
    rep[i], so it is the same on every column and row and cancels.
    """
    sigma = sorted(range(len(rep)), key=lambda j: -mu[j])
    full = (1 << m) - 1
    blocks = [(i * m, to * m) for i, to in enumerate(sigma)]

    def carried(s: Subset) -> Subset:
        out = 0
        for frm, to in blocks:
            out |= (s >> frm & full) << to
        return out

    where = {s: t for t, s in enumerate(subsets)}
    position = [where.get(carried(s)) for s in rep_subsets]
    moved = {
        (k, carried(image)): {position[t]: v for t, v in row.items()}
        for (k, image), row in rep_rows.items()
    }
    if len(subsets) != len(rep_subsets) or None in position or moved != rows:
        raise InvariantViolation(
            f"hom space at mu={mu} is not the one at its sorted representative "
            f"{rep} carried over by a row permutation"
        )


def induced_gln_module(bim: BiModule, lam) -> ExplicitModule:
    """The gl(n) module carried by all hom spaces of one gl(m) weight lam.

    Each hom space, in reduced echelon form, is the weight space mu of
    the module; glmodules.submodule restricts the gl(n) generators to
    them exactly.  submodule generates under F from its seeds, so the
    hom spaces' total dimension is taken first and the result must
    match it: a larger module means they were not closed under F, and
    raises InvariantViolation.  The result is the irreducible with
    highest weight conjugate(lam).
    """
    shape = as_partition(lam)
    if sum(shape) != bim.N:
        raise ValueError(f"|lam| must equal N={bim.N}, got {sum(shape)}")
    if len(shape) > bim.m:
        raise ValueError(f"partition {shape} has more than m={bim.m} parts")
    spaces: dict[WeightVec, EchelonBasis] = {}
    for mu in compositions(bim.N, bim.n):
        spaces[mu] = EchelonBasis()
        for vec in hom_space(bim, shape, mu).vectors:
            spaces[mu].insert(vec)

    def action(move: Move):
        def apply(vec: SparseVec) -> SparseVec:
            image: SparseVec = {}
            for subset, coeff in vec.items():
                for sign, new in _move_images(subset, bim.m, move):
                    vec_add_scaled(image, {new: sign}, coeff)
            return image

        return apply

    hom_total = sum(len(space.rows) for space in spaces.values())
    mod = submodule(
        bim.n,
        spaces,
        [action(move) for move in _moves(bim.n, True, True)],
        [action(move) for move in _moves(bim.n, True, False)],
    )
    if mod.dim != hom_total:
        raise InvariantViolation(
            f"the hom spaces of lam={shape} sum to dimension {hom_total}, but "
            f"the module they generate has dimension {mod.dim}: they are not "
            "closed under the lowering generators"
        )
    return mod
