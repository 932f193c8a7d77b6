"""Commuting gl(n) x gl(m) actions on Lambda^N(C^n (x) C^m).

The wedge basis is indexed by N-subsets of the nm pairs (i, a), each an
int bitmask with bit i*m + a for pair (i, a), so row i of its 0/1 n x m
matrix is the mask's m-bit field i.  The mask is the only name of a
wedge basis vector: hom-space vectors are sparse dicts keyed by mask,
and a generator acts on each key directly.  Both generator families act
by derivations through glmodules._move_images, whose signs are
glmodules.wedge_replace's, as ext_power's are.

A bi-weight slice (gl(n) weight mu, gl(m) weight lam) is the set of 0/1
n x m matrices with row sums mu and column sums lam (Howe, "Remarks on
classical invariant theory", Trans. AMS 1989).  Hom spaces, joint
highest-weight lines and the induced gl(n) module are computed from their
slices alone: the slice is enumerated directly, row by row over the
column capacities each row can leave, and counted before it is built;
generators are applied to subsets on the fly, and the whole wedge is
never built.  The row choices out of a column-capacity state do not
depend on the rest of mu, so one helper (_choices) fills a table of
them for two traversals: _slice, one mu's slice in lexicographic order,
and the orbit walk (below), every rearrangement of a sorted mu at once,
whose walks in one call share one table.  The
dimension guard (WEYLWORKS_MAX_DIM) applies to each slice's count, and
to each front of the walk, before it is built.

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
through hom_space.  Every member of the orbit, the sorted mu too, gets
its slice from one walk (_orbit_slices) that enumerates the members row
by row in their own row order, builds each shared prefix once, and
writes each row into the sorted mu's row that sigma carries it to, so
every slice comes out already carried.  Each must be the sorted mu's
slice; the moves are row-local, so its raising rows would be the sorted
mu's carried too, and the sorted mu's hom-space vectors, renamed by the
walk's pairing of rows, span mu's.  The evidence is per orbit.
hom_dims, which crossval reads, and induced_gln_module both read that
walk; only the induced module, which renames vectors, asks it for the
subsets in mu's own rows.

BiModule is only (n, m, N): no command reads more of the wedge than its
slices.  verify_commuting_actions, a check no command runs, walks all
C(nm, N) subsets one at a time and builds no matrix.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import partial
from math import comb

from .characters import DEFAULT_SIZE_GUARD, dim_irrep
from .errors import InvariantViolation, check_dimension, max_dimension
from .glmodules import (
    ExplicitModule, Move, Subset, _mask, _move_images, _moves, submodule
)
from .linalg import EchelonBasis, SparseVec, _demote, kernel
from .weights import (
    WeightVec,
    as_partition,
    conjugate,
    orbits,
    pad,
    partitions,
)

def _choices(table: dict, m: int, left, v: int, rows_after: int) -> dict:
    """The row choices out of the column-capacity state left for a row
    of weight v with rows_after rows of nonzero weight below it: {next
    state: choice as a column mask}, in itertools.combinations order,
    without the next states where a column needs more ones than
    rows_after.  Distinct choices lead to distinct states.  The entry
    depends only on (left, v, rows_after), not on the rest of the row
    weights, so it is made in table under that key on first ask and
    never changed after.
    """
    key = (left, v, rows_after)
    out = table.get(key)
    if out is None:
        out = table[key] = {}
        for cols in itertools.combinations([a for a in range(m) if left[a]], v):
            after = list(left)
            choice = 0
            for a in cols:
                after[a] -= 1
                choice |= 1 << a
            if max(after) <= rows_after:
                out[tuple(after)] = choice
    return out


def _slice(n: int, m: int, wn, wm, table: dict | None = None) -> tuple[Subset, ...]:
    """Subsets with gl(n) weight wn and gl(m) weight wm, in lexicographic
    order.

    A state is the tuple of column capacities left after some rows; row
    i may take wn[i] columns with capacity, and a state where a column
    needs more ones than rows of nonzero weight remain is pruned
    (_choices).  A forward pass records the states each row reaches and
    the row choices out of each, a backward pass counts each state's
    completions and skips the dead ones, and the count is checked
    against the dimension guard before anything is built.  Completions
    are then built backward, one row's live states at a time, by OR-ing
    each row choice, shifted to its row, onto the completions of the
    state it leads to; choices are tried in itertools.combinations
    order, so the subsets come out in lexicographic order.  A row with
    wn[i] == 0 changes no state, and every pass skips it.  No recursion,
    so n may pass the recursion limit.

    table holds the row choices (_choices).  A caller may pass one table
    to many calls; entries are never changed once made, so a state dead
    for one wn stays whole for the next.  Without a table the call makes
    its own.
    """
    if len(wn) != n or len(wm) != m or any(x < 0 for x in (*wn, *wm)):
        return ()
    if table is None:
        table = {}
    start = tuple(wm)
    below = sum(1 for x in wn if x)  # rows of nonzero weight not yet taken
    # per row: {state: {next state: row choice}}, the table's own entries
    rows: list[dict[tuple[int, ...], dict[tuple[int, ...], int]]] = []
    states = [start] if max(start) <= below else []
    for i in range(n):
        here = {}
        if wn[i]:
            below -= 1
            reached = {}
            for left in states:
                here[left] = out = _choices(table, m, left, wn[i], below)
                reached.update(out)
            states = list(reached)
        rows.append(here)
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


def _first_slots(rep) -> dict[int, int]:
    """The orbit walk's slot rule: {v: #{parts of rep > v}} for each
    nonzero part v of the sorted rep, the row of rep that the first row
    of value v of a rearrangement mu is carried to; the k-th (from 0)
    goes to that row + k.  This is the inverse of the permutation sigma
    with mu[sigma(i)] = rep[i] that keeps equal parts in order.  Zero
    rows hold no bits and get no slot.
    """
    return {v: rep.index(v) for v in set(rep) if v}


def _orbit_slices(m: int, wm, rep, members, table: dict, own: bool):
    """(mu, mu's slice in rep's rows, mu's slice in its own rows) for
    every mu of members, rearrangements of the sorted rep in
    weights.compositions order; the third is None unless own.

    One walk enumerates every member's slice row by row in mu's own row
    order, from the row choices of _choices (table, shared with every
    walk of the caller).  A stack holds the front after each row of the
    current mu's prefix: {state: partial subsets}.  The next mu pops to
    the prefix it shares with the last one, so each prefix's partial
    subsets are built once for all the members that extend it.  A row of
    value v that is the k-th v so far is written into rep's row
    _first_slots(rep)[v] + k, a slot the prefix alone fixes, so every
    slice comes out already carried into rep's rows.  With own, each
    partial also holds mu's own rows, n*m bits above, and the two are
    split when mu is yielded, so its two lists are paired by position.

    The states are pruned by the rows of nonzero weight left, so a zero
    row changes nothing, and mu is yielded as soon as only zero rows
    remain: its slice is the front's all-zero state.  No recursion, so n
    may pass the recursion limit.  Each front's size, the sum over its
    states of partial subsets times row choices, is checked against the
    dimension guard, read once per walk, before the front is built.
    Nothing here is checked against rep's slice; _orbit_hom_spaces does
    that.
    """
    n = len(rep)
    up = n * m
    low = (1 << up) - 1
    cap = max_dimension()
    zero = (0,) * m
    start = tuple(wm)
    below = sum(1 for x in rep if x)  # rows of nonzero weight not yet taken
    root = {start: [0]} if max(start) <= below else {}
    stack = [(root, _first_slots(rep), below)]
    prev = ()
    for mu in members:
        depth = 0
        for a, b in zip(mu, prev):
            if a != b:
                break
            depth += 1
        del stack[depth + 1:]
        front, slots, below = stack[-1]
        i = len(stack) - 1
        while below:
            v = mu[i]
            if v:
                slot = slots[v]
                slots = {**slots, v: slot + 1}
                below -= 1
                place = 1 << slot * m | (1 << up + i * m if own else 0)
                outs = [
                    (_choices(table, m, left, v, below), partials)
                    for left, partials in front.items()
                ]
                size = sum(len(out) * len(partials) for out, partials in outs)
                if size > cap:
                    check_dimension(size)
                front = {}
                for out, partials in outs:
                    for after, c in out.items():
                        c *= place  # c shifted to each bit of place
                        grown = [p | c for p in partials]
                        have = front.get(after)
                        if have is None:
                            front[after] = grown
                        else:
                            have += grown
            stack.append((front, slots, below))
            i += 1
        found = front.get(zero, [])
        if own:
            yield mu, [s & low for s in found], [s >> up for s in found]
        else:
            yield mu, found, None
        prev = mu


class BiModule(namedtuple("BiModule", "n m N")):
    """Lambda^N(C^n (x) C^m), given by its ranks and degree alone.

    Every computation reads bi-weight slices, so no basis or generator
    matrix is kept.  dim is the binomial C(nm, N), which takes seconds for
    huge ranks, so it is computed from n, m and N when read and never
    stored.
    """

    __slots__ = ()

    @property
    def dim(self) -> int:
        return comb(self.n * self.m, self.N)


class HomSpace(namedtuple("HomSpace", "lam mu dim vectors slice_indices")):
    """Joint kernel of the gl(m) raising operators in one bi-weight slice.

    slice_indices are the slice's wedge basis vectors, as bitmasks, in
    lexicographic order.  vectors are a kernel basis, as sparse dicts
    keyed by those bitmasks, so a gl(n) generator can act on a vector
    subset by subset; only their span is meaningful.
    """

    __slots__ = ()


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


def _field_terms(m: int, field: Subset) -> tuple[tuple[int, int, Subset], ...]:
    """(move number, sign, flip mask) terms of the gl(m) raising moves on
    one m-bit row field, as _move_images (and so wedge_replace) gives
    them on the field taken as a one-row subset.  On a subset whose row i
    is the field, each term flips the mask shifted by i*m.  The signs are
    all +1.  Not cached: _stacked_rows keeps the fields of one call.
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


def _orbit_hom_spaces(bim: BiModule, shape, groups, own: bool):
    """(mu, its sorted rep's HomSpace, names) for every mu of groups
    (weights.orbits); names maps each subset of the rep's slice to mu's
    subset it is carried to, or is None unless own.

    Only each rep goes through hom_space.  Every member's slice, the
    rep's too, comes from one _orbit_slices walk per orbit, already
    written in the rep's rows, and must have the length of the rep's
    slice and lie inside the set of it, or InvariantViolation is raised.
    The walk's list has no repeats (each front keeps one list per state,
    the choices out of a state are distinct, and each row of mu has its
    own slot), so that makes it the rep's slice: mu's slice, carried by
    sigma^-1 (_first_slots), is the rep's.  The raising rows then agree
    too: a gl(m) move acts inside one row field, so carrying s ^ f << i*m
    gives the carried s ^ f << sigma(i)*m, and sigma's wedge sign depends
    only on the block sizes rep[i], so it is one constant on the slice
    and cancels.  sigma commutes with gl(m), so the rep's hom-space
    vectors, renamed through names, span mu's hom space.  The tests check
    both on every slice with n, m <= 4.  The walks of one call share one
    table of row choices (_choices), freed when the call ends.
    """
    wm = pad(shape, bim.m)
    table: dict = {}
    for rep, members in groups.items():
        hs = hom_space(bim, shape, rep)
        whole = set(hs.slice_indices)
        walk = _orbit_slices(bim.m, wm, rep, members, table, own=own)
        for mu, carried, own_rows in walk:
            if len(carried) != len(whole) or not whole.issuperset(carried):
                raise InvariantViolation(
                    f"hom space at mu={mu} is not the one at its sorted representative "
                    f"{rep} carried over by a row permutation"
                )
            yield mu, hs, dict(zip(carried, own_rows)) if own else None


def hom_dims(bim: BiModule, lam) -> dict[WeightVec, int]:
    """hom_space(bim, lam, mu).dim for every composition mu of N into n
    parts, in the order of weights.compositions, read off one
    _orbit_hom_spaces walk without own-row names: one elimination per
    S_n orbit, and a certified slice in the rep's rows for every mu.
    """
    shape = as_partition(lam)
    groups = orbits(bim.N, bim.n)
    # compositions order, on the orbits' own tuples: each is held once
    dims = dict.fromkeys(sorted(itertools.chain(*groups.values()), reverse=True))
    for mu, hs, _ in _orbit_hom_spaces(bim, shape, groups, own=False):
        dims[mu] = hs.dim
    return dims


def induced_gln_module(bim: BiModule, lam) -> ExplicitModule:
    """The gl(n) module carried by all hom spaces of one gl(m) weight lam.

    Each hom space, in reduced echelon form, is the weight space mu of
    the module; glmodules.submodule restricts the gl(n) generators to
    them exactly.  mu's seeds are its sorted rep's hom-space vectors,
    renamed by _orbit_hom_spaces' pairing of the rep's slice with mu's
    (the one walk builds both) and inserted last first by leading
    column, as linalg.kernel inserts its rows.
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
    for mu, hs, name in _orbit_hom_spaces(
        bim, shape, orbits(bim.N, bim.n), own=True
    ):
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
