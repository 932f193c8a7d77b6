"""Commuting gl(n) x gl(m) actions on Lambda^N(C^n (x) C^m).

The wedge basis is indexed by N-subsets of the nm pairs (i, a), each an
int bitmask with bit i*m + a for pair (i, a), so row i of its 0/1 n x m
matrix is the mask's m-bit field i.  The mask is the only name of a
wedge basis vector: hom-space vectors are sparse dicts keyed by mask,
and a generator acts on each key directly.  Both generator families act
by derivations through the wedge action shared with glmodules.ext_power
(glmodules._move_images).

A bi-weight slice (gl(n) weight mu, gl(m) weight lam) is the set of 0/1
n x m matrices with row sums mu and column sums lam (Howe, "Remarks on
classical invariant theory", Trans. AMS 1989).  Hom spaces, joint
highest-weight lines and the induced gl(n) module are computed from their
slices alone: the slice is enumerated directly, row by row over the
column capacities each row can leave, and counted before it is built;
generators are applied to subsets on the fly, and the whole wedge is
never built.  The row choices out of a column-capacity state do not
depend on the rest of mu, so the slices of one orbit walk share one
table of them, which the walk owns and frees.  The dimension guard
(WEYLWORKS_MAX_DIM) applies to each slice's count, before the slice is
built.

The induced module seeds glmodules.submodule, the same pass that ends
irrep_plucker, with every hom space in reduced echelon form as its
weight space mu: each one its sorted mu's vectors carried over by a row
permutation (below).  The pass checks closure under the raising
generators; the module it generates must be no larger than the hom
spaces, which is closure under the lowering ones.

A gl(m) move acts inside one row of the 0/1 matrix: it replaces (i, a)
by (i, b), and every factor between them is in row i too.  So its terms
on a subset depend on one m-bit row field at a time (_field_terms),
and a raising move E_a, which swaps the adjacent bits a + 1 and a of a
field, always has sign +1.  _stacked_rows builds the raising rows of a
slice field by field, and hom_space takes their kernel with
linalg.kernel, which picks the row order for every caller.

A row permutation sigma of C^n commutes with gl(m) and carries the
(mu, lam) slice onto the (sigma mu, lam) slice, so one walk over the S_n
orbits (_orbit_hom_spaces) eliminates once per orbit, at the sorted mu,
through hom_space.  Every other mu gets only its own slice, which
_certify_carried checks against the sorted mu's slice carried by sigma,
one run of rows moved by the same displacement at a time; the moves are
row-local, so its raising rows would be the sorted mu's carried too, and
the sorted mu's hom-space vectors, renamed through the carried slice,
span mu's.  The evidence is per orbit.  hom_dims, which crossval reads,
and induced_gln_module both read that walk.

BiModule is only (n, m, N): no command reads more of the wedge than its
slices.  verify_commuting_actions, a check no command runs, walks all
C(nm, N) subsets one at a time and builds no matrix.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from functools import cached_property, partial
from math import comb

from .characters import DEFAULT_SIZE_GUARD, dim_irrep
from .errors import InvariantViolation, check_dimension
from .glmodules import (
    ExplicitModule, Move, Subset, _mask, _move_images, _moves, submodule
)
from .linalg import EchelonBasis, Scalar, SparseVec, _demote, kernel
from .weights import (
    WeightVec,
    as_partition,
    conjugate,
    orbits,
    pad,
    partitions,
)

def _slice(n: int, m: int, wn, wm, table: dict | None = None) -> tuple[Subset, ...]:
    """Subsets with gl(n) weight wn and gl(m) weight wm, in lexicographic
    order.

    A state is the tuple of column capacities left after some rows; row
    i may take wn[i] columns with capacity, and a state where a column
    needs more ones than rows remain is pruned.  A forward pass records
    the states each row reaches and the row choices out of each, a
    backward pass counts each state's completions and skips the dead
    ones, and the count is checked against the dimension guard before
    anything is built.  Completions are then built backward, one row's
    live states at a time, by OR-ing each row choice, shifted to its row,
    onto the completions of the state it leads to; choices are tried in
    itertools.combinations order, so the subsets come out in
    lexicographic order.  A row with wn[i] == 0 only drops the states
    with an overfull column; the backward passes skip it.  No recursion,
    so n may pass the recursion limit.

    The choices out of a state depend only on (state, wn[i], rows left),
    not on wn as a whole, so table maps that triple to {next state: row
    choice as a column mask}, in combinations order; distinct choices
    lead to distinct states.  A caller may pass one table to many calls
    (_orbit_hom_spaces shares one across every mu of its walk); entries
    are never changed once made, so a state dead for one wn stays whole
    for the next.  Without a table the call makes its own.
    """
    if len(wn) != n or len(wm) != m or any(x < 0 for x in (*wn, *wm)):
        return ()
    if table is None:
        table = {}
    start = tuple(wm)
    # per row: {state: {next state: row choice}}, the table's own entries
    rows: list[dict[tuple[int, ...], dict[tuple[int, ...], int]]] = []
    states = [start]
    for i in range(n):
        rows_after = n - 1 - i
        here = {}
        if not wn[i]:  # a state goes on as it is unless a column is overfull
            states = [left for left in states if max(left) <= rows_after]
            rows.append(here)
            continue
        reached = {}
        for left in states:
            key = (left, wn[i], rows_after)
            out = table.get(key)
            if out is None:
                out = table[key] = {}
                for cols in itertools.combinations(
                    [a for a in range(m) if left[a]], wn[i]
                ):
                    after = list(left)
                    choice = 0
                    for a in cols:
                        after[a] -= 1
                        choice |= 1 << a
                    if max(after) <= rows_after:
                        out[tuple(after)] = choice
            here[left] = out
            reached.update(out)
        rows.append(here)
        states = list(reached)
    count = dict.fromkeys(states, 1)  # only the all-zero state is reached
    live: dict[int, dict[tuple[int, ...], int]] = {}  # per row: live state counts
    zero = itertools.repeat(0)
    for i in reversed(range(n)):
        if wn[i]:
            counted = {}
            for left, out in rows[i].items():
                total = sum(map(count.get, out, zero))
                if total:
                    counted[left] = total
            live[i] = count = counted
    check_dimension(count.get(start, 0))
    built: dict[tuple[int, ...], list[Subset]] = dict.fromkeys(states, [0])
    for i in reversed(range(n)):
        if wn[i]:
            shift = i * m
            here = rows[i]
            built = {
                left: [
                    c << shift | rest
                    for after, c in here[left].items()
                    for rest in built.get(after, ())
                ]
                for left in live[i]
            }
    return tuple(built.get(start, ()))


@dataclass(frozen=True)
class BiModule:
    """Lambda^N(C^n (x) C^m), given by its ranks and degree alone.

    Every computation reads bi-weight slices, so no basis or generator
    matrix is kept.  dim is the binomial C(nm, N), which takes seconds for
    huge ranks, so it is computed on first access only.
    """

    n: int
    m: int
    N: int

    @cached_property
    def dim(self) -> int:
        return comb(self.n * self.m, self.N)


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
    """Lambda^N(C^n (x) C^m), checked and returned without building
    anything.

    WEYLWORKS_MAX_DIM guards what is actually built: the ranks at once
    (every weight has n or m entries), each slice's size in hom_space,
    and C(nm, N) in verify_commuting_actions.
    """
    if n < 1 or m < 1:
        raise ValueError("both ranks must be at least 1")
    check_dimension(max(n, m))
    if not 0 <= N <= n * m:
        raise ValueError(f"N={N} outside 0..{n * m}")
    return BiModule(n=n, m=m, N=N)


def _act(m: int, move: Move, vec: SparseVec) -> SparseVec:
    """One generator applied to a sparse vector keyed by wedge subsets."""
    image: SparseVec = {}
    for subset, coeff in vec.items():
        for sign, new in _move_images(subset, m, move):
            nv = image.get(new, 0) + sign * coeff
            if nv:
                image[new] = nv if nv.__class__ is int else _demote(nv)
            else:
                image.pop(new, None)
    return image


def verify_commuting_actions(bim: BiModule) -> None:
    """Check that every gl(n) generator commutes with every gl(m) generator
    on every wedge basis vector, exactly.

    The C(nm, N) subsets are checked against WEYLWORKS_MAX_DIM, then
    walked one at a time; each pair acts on the subset in both orders
    through _act, the action the induced module uses, and no matrix is
    built.  Raises InvariantViolation naming the pair and the first
    subset, as a bitmask, where they fail.
    """

    def named(count: int, along_rows: bool, side: str) -> list[tuple[str, Move]]:
        return [
            (f"{k}{side}_{i}", move)
            for k, raising in (("E", True), ("F", False))
            for i, move in enumerate(_moves(count, along_rows, raising))
        ]

    check_dimension(bim.dim)
    gln, glm = named(bim.n, True, "n"), named(bim.m, False, "m")
    for s in map(_mask, itertools.combinations(range(bim.n * bim.m), bim.N)):
        once = {move: _act(bim.m, move, {s: 1}) for _, move in gln + glm}
        for label_x, x in gln:
            for label_y, y in glm:
                if _act(bim.m, x, once[y]) != _act(bim.m, y, once[x]):
                    raise InvariantViolation(
                        f"{label_x} and {label_y} fail to commute on subset {s:#b} "
                        "of the wedge module"
                    )


@functools.lru_cache(maxsize=1 << 14)
def _field_terms(m: int, field: Subset) -> tuple[tuple[int, int, Subset], ...]:
    """(move number, sign, flip mask) terms of the gl(m) raising moves on
    one m-bit row field, as _move_images (and so wedge_replace) gives
    them on the field taken as a one-row subset.  On a subset whose row i
    is the field, each term flips the mask shifted by i*m.  The signs are
    all +1.  Cached per (m, field) with a bound, so the 2^m fields of a
    large m are never tabulated.
    """
    return tuple(
        (k, sign, field ^ image)
        for k, move in enumerate(_moves(m, False, True))
        for sign, image in _move_images(field, m, move)
    )


def _stacked_rows(
    m: int, subsets: tuple[Subset, ...]
) -> dict[tuple[int, Subset], SparseVec]:
    """The stacked gl(m) raising moves on the span of subsets (one slice),
    one row per (move number, image subset), keyed by position in subsets.

    Every subset of a slice has the same row sums, so the rows holding a
    factor are read off the first.  A term of move k with flip mask f on
    the row field at shift sends s to row (k, s ^ f << shift); each
    distinct field's _field_terms are looked up once per call.
    """
    full = (1 << m) - 1
    first = subsets[0] if subsets else 0
    shifts = [f for f in range(0, first.bit_length(), m) if first >> f & full]
    terms: dict[Subset, tuple[tuple[int, int, Subset], ...]] = {}
    rows: dict[tuple[int, Subset], SparseVec] = {}
    for col, s in enumerate(subsets):
        for shift in shifts:
            field = s >> shift & full
            found = terms.get(field)
            if found is None:
                found = terms[field] = _field_terms(m, field)
            for k, sign, flip in found:
                key = (k, s ^ flip << shift)
                row = rows.get(key)
                if row is None:
                    rows[key] = {col: sign}
                else:
                    row[col] = sign
    return rows


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
    bim = build_bimodule(n, m, N)  # before conjugate(lam) takes n steps
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
    The gl(m) rows come from _stacked_rows; a gl(n) move carries a factor
    across rows, so its rows are stacked after them, read off
    _move_images, whose images of one subset are distinct.
    """
    if len(wn) != bim.n:
        return 0
    rows = max((i + 1 for i, x in enumerate(wn) if x), default=1)
    subsets = _slice(rows, bim.m, tuple(wn)[:rows], wm)
    stacked = _stacked_rows(bim.m, subsets)
    for k, move in enumerate(_moves(rows, True, True), start=bim.m - 1):
        for pos, s in enumerate(subsets):
            for sign, image in _move_images(s, bim.m, move):
                stacked.setdefault((k, image), {})[pos] = sign
    return len(kernel(list(stacked.values()), len(subsets)))


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
    rows = _stacked_rows(bim.m, subsets)
    basis = kernel(list(rows.values()), len(subsets))
    vectors = tuple({subsets[t]: v for t, v in vec.items()} for vec in basis)
    return HomSpace(
        lam=shape, mu=mu, dim=len(vectors), vectors=vectors, slice_indices=subsets
    )


def _orbit_hom_spaces(bim: BiModule, shape, groups):
    """(mu, its sorted rep's HomSpace, mu's slice in the rep's slice
    order) for every mu of groups (weights.orbits).

    Only each rep goes through hom_space.  Every other mu gets only its
    own slice, which _certify_carried checks is the rep's carried by a
    row permutation, so it renames the rep's vectors into a basis of mu's
    hom space.  The slices of one walk share one table of row choices
    (see _slice), freed when the walk ends.
    """
    wm = pad(shape, bim.m)
    table: dict = {}
    for rep, members in groups.items():
        hs = hom_space(bim, shape, rep)
        for mu in members:
            if mu == rep:
                yield mu, hs, hs.slice_indices
            else:
                subsets = _slice(bim.n, bim.m, mu, wm, table)
                yield mu, hs, _certify_carried(bim.m, rep, hs.slice_indices, mu, subsets)


def hom_dims(bim: BiModule, lam) -> dict[WeightVec, int]:
    """hom_space(bim, lam, mu).dim for every composition mu of N into n
    parts, in the order of weights.compositions, read off one
    _orbit_hom_spaces walk: one elimination per S_n orbit.
    """
    shape = as_partition(lam)
    groups = orbits(bim.N, bim.n)
    # compositions order, on the orbits' own tuples: each is held once
    dims = dict.fromkeys(sorted(itertools.chain(*groups.values()), reverse=True))
    for mu, hs, _ in _orbit_hom_spaces(bim, shape, groups):
        dims[mu] = hs.dim
    return dims


def _certify_carried(m: int, rep, rep_subsets, mu, subsets) -> list[Subset]:
    """Check that mu's slice (subsets) is rep's (rep_subsets) carried by
    the row permutation sigma with mu[sigma(i)] = rep[i] (equal parts keep
    their order), and return the carried rep_subsets; or raise
    InvariantViolation.

    carried(s) moves row i of s to row sigma(i); it is injective, so
    equal sizes and no missing carried subset make the slices equal.  The
    raising rows then agree too: a gl(m) move acts inside one row field,
    so carried(s ^ f << i*m) = carried(s) ^ f << sigma(i)*m, and sigma's
    wedge sign depends only on the block sizes rep[i], so it is one
    constant on the slice and cancels.  sigma commutes with gl(m), so
    rep's hom-space vectors, each subset s renamed carried(s), span mu's.
    The tests check both on every slice with n, m <= 4.

    The carry works in row runs: consecutive rows that sigma moves by the
    same displacement go as one mask and one shift.  rep is sorted, so
    its empty rows, which hold no bits, are all at the end and left out.
    """
    sigma = sorted(range(len(rep)), key=lambda j: -mu[j])
    blocks = []  # (first row's shift, the run's mask, its image's shift)
    nonempty = range(sum(1 for x in rep if x))
    for moved, run in itertools.groupby(nonempty, key=lambda i: sigma[i] - i):
        run = list(run)
        blocks.append((run[0] * m, (1 << len(run) * m) - 1, (run[0] + moved) * m))
    carried = [0] * len(rep_subsets)
    for frm, mask, to in blocks:
        carried = [out | (s >> frm & mask) << to for out, s in zip(carried, rep_subsets)]
    if len(subsets) != len(rep_subsets) or not set(subsets).issuperset(carried):
        raise InvariantViolation(
            f"hom space at mu={mu} is not the one at its sorted representative "
            f"{rep} carried over by a row permutation"
        )
    return carried


def induced_gln_module(bim: BiModule, lam) -> ExplicitModule:
    """The gl(n) module carried by all hom spaces of one gl(m) weight lam.

    Each hom space, in reduced echelon form, is the weight space mu of
    the module; glmodules.submodule restricts the gl(n) generators to
    them exactly.  mu's seeds are its sorted rep's hom-space vectors,
    renamed through the carried slice of _orbit_hom_spaces and inserted
    last first by leading column, as linalg.kernel inserts its rows.
    submodule generates under F from its seeds, so the hom spaces' total
    dimension is taken first and the result must match it: a larger
    module means they were not closed under F, and raises
    InvariantViolation.  The result is the irreducible with highest
    weight conjugate(lam).
    """
    shape = as_partition(lam)
    if sum(shape) != bim.N:
        raise ValueError(f"|lam| must equal N={bim.N}, got {sum(shape)}")
    if len(shape) > bim.m:
        raise ValueError(f"partition {shape} has more than m={bim.m} parts")
    spaces: dict[WeightVec, EchelonBasis] = {}
    for mu, hs, carried in _orbit_hom_spaces(bim, shape, orbits(bim.N, bim.n)):
        name = dict(zip(hs.slice_indices, carried))
        seeds = [{name[s]: v for s, v in vec.items()} for vec in hs.vectors]
        spaces[mu] = space = EchelonBasis()
        for vec in sorted(seeds, key=min, reverse=True):
            space.insert(vec)
    hom_total = sum(len(space.rows) for space in spaces.values())
    mod = submodule(
        bim.n,
        spaces,
        [partial(_act, bim.m, move) for move in _moves(bim.n, True, True)],
        [partial(_act, bim.m, move) for move in _moves(bim.n, True, False)],
    )
    if mod.dim != hom_total:
        raise InvariantViolation(
            f"the hom spaces of lam={shape} sum to dimension {hom_total}, but "
            f"the module they generate has dimension {mod.dim}: they are not "
            "closed under the lowering generators"
        )
    return mod
