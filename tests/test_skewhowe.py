import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from weylworks import skewhowe
from weylworks.characters import character_table, dim_irrep, kostka
from weylworks.cli import cross_validate
from weylworks.errors import InvariantViolation, ResourceLimitError
from weylworks.glmodules import (
    _labelled_module,
    _move_images,
    _moves,
    decompose,
    ext_power,
    verify_chevalley_relations,
)
from weylworks.linalg import EchelonBasis, kernel
from weylworks.skewhowe import (
    _certify_carried,
    _field_terms,
    _slice,
    _stacked_rows,
    build_bimodule,
    decompose_howe,
    hom_dims,
    hom_space,
    induced_gln_module,
    joint_highest_weight_dim,
    verify_commuting_actions,
)
from weylworks.weights import compositions, conjugate, pad, partitions


def bits(subset):
    """The factors of a wedge subset bitmask, ascending."""
    return [p for p in range(subset.bit_length()) if subset >> p & 1]


def whole_wedge(n, m, N, along_rows):
    """Referee: the whole wedge Lambda^N(C^n (x) C^m) as a gl(n) module
    (along_rows) or a gl(m) module.  Returns its N-subsets, as bitmasks in
    lexicographic order, and the module on them: weights counted pair by
    pair, generators built by glmodules._labelled_module from
    _move_images, each move read as a column move for gl(m)."""
    basis = [sum(1 << p for p in c) for c in itertools.combinations(range(n * m), N)]
    rank = n if along_rows else m

    def weight(subset):
        sides = [divmod(p, m)[0 if along_rows else 1] for p in bits(subset)]
        return tuple(sides.count(i) for i in range(rank))

    def images(s, move):
        _, frm, to = move
        return _move_images(s, m, (along_rows, frm, to))

    return basis, _labelled_module(rank, basis, map(weight, basis), images)


def test_build_bimodule_dimensions():
    bim = build_bimodule(2, 3, 3)
    assert bim.dim == math.comb(6, 3) == 20
    assert build_bimodule(2, 2, 0).dim == 1
    assert build_bimodule(3, 2, 6).dim == 1


def test_ext_power_is_the_one_column_bimodule():
    for n in range(1, 6):
        for k in range(n + 1):
            ext = ext_power(k, n)
            _, wedge = whole_wedge(n, 1, k, along_rows=True)
            assert (ext.n, ext.dim, ext.basis_weights) == (
                wedge.n, wedge.dim, wedge.basis_weights
            )
            for ours, theirs in zip(ext.E + ext.F, wedge.E + wedge.F, strict=True):
                assert (ours.nrows, ours.ncols) == (theirs.nrows, theirs.ncols)
                assert ours.entries() == theirs.entries()


def test_bimodule_weights_count_pairs():
    """The bi-weight slices count each subset's pairs by row and by
    column, and together they are the C(nm, N) subsets."""
    for n, m, N in [(2, 3, 2), (3, 3, 4)]:
        seen = []
        for wn in compositions(N, n):
            for wm in compositions(N, m):
                for subset in _slice(n, m, wn, wm):
                    pairs = [divmod(p, m) for p in bits(subset)]
                    assert wn == tuple(sum(1 for r, _ in pairs if r == i) for i in range(n))
                    assert wm == tuple(sum(1 for _, c in pairs if c == a) for a in range(m))
                    seen.append(subset)
        wedge, _ = whole_wedge(n, m, N, along_rows=True)
        assert sorted(seen) == sorted(wedge) and len(wedge) == math.comb(n * m, N)


def test_rank_one_bimodule_is_exterior_power():
    _, glm = whole_wedge(1, 4, 2, along_rows=False)
    assert decompose(glm).multiplicities == {(1, 1, 0, 0): 1}


def test_commuting_actions_small():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for N in range(min(n * m, 4) + 1):
                verify_commuting_actions(build_bimodule(n, m, N))


def test_commuting_actions_check_names_the_failing_pair(monkeypatch):
    """One term of one generator on one subset changes sign, and the check
    names the pair and that subset.

    A flipped gl(m) term on a subset also shows on any subset that a
    gl(n) generator carries onto it, and the last subset the walk visits,
    the largest mask, always has such a neighbour earlier in the walk.
    The last subset of Lambda^3(C^3 (x) C^3) is one full row, which no
    gl(m) generator reaches from another subset, so a gl(n) term flipped
    there shows on it alone: the check fails only if the walk gets there.
    """
    honest = skewhowe._move_images
    cases = [
        # Em_0 moves pair (1, 1) of 0b1010 to (1, 0)
        ((2, 2, 2), (False, 1, 0), 0b1010, 0b0110, "En_0 and Em_0"),
        # En_1 moves pair (2, 0) of the last subset to (1, 0)
        ((3, 3, 3), (True, 2, 1), 0b111000000, 0b110001000, "En_1 and Em_0"),
    ]
    for (n, m, N), move, source, image, pair in cases:

        def doctored(subset, width, mv, move=move, source=source, image=image):
            terms = honest(subset, width, mv)
            if (mv, subset) != (move, source):
                return terms
            return [(-sign if new == image else sign, new) for sign, new in terms]

        monkeypatch.setattr(skewhowe, "_move_images", doctored)
        with pytest.raises(
            InvariantViolation,
            match=f"^{pair} fail to commute on subset {source:#b} of the wedge module$",
        ):
            verify_commuting_actions(build_bimodule(n, m, N))


def test_bimodule_generators_satisfy_bracket():
    for along_rows in (True, False):
        verify_chevalley_relations(whole_wedge(2, 3, 3, along_rows)[1])


def test_decompose_howe_pinned():
    assert decompose_howe(2, 3, 3) == [
        ((2, 1), (2, 1, 0)),
        ((3, 0), (1, 1, 1)),
    ]
    assert decompose_howe(2, 3, 2) == [
        ((1, 1), (2, 0, 0)),
        ((2, 0), (1, 1, 0)),
    ]
    assert decompose_howe(2, 3, 6) == [((3, 3), (2, 2, 2))]


def test_decompose_howe_dimension_identity():
    for n in range(1, 5):
        for m in range(1, 5):
            for N in range(min(n * m, 6) + 1):
                pairs = decompose_howe(n, m, N)
                total = sum(
                    dim_irrep(a, n) * dim_irrep(b, m) for a, b in pairs
                )
                assert total == math.comb(n * m, N), (n, m, N)



def test_decompose_howe_checks_the_dimension_identity(monkeypatch):
    honest = skewhowe.dim_irrep
    monkeypatch.setattr(
        skewhowe, "dim_irrep", lambda *args, **kwargs: honest(*args, **kwargs) + 1
    )
    # C(6, 3) = 20 = 2 * 8 + 4 * 1; each dimension one too large gives 3 * 9 + 5 * 2
    with pytest.raises(InvariantViolation, match="add to 37, wedge has 20$"):
        decompose_howe(2, 3, 3)

def test_decompose_howe_checked_against_bimodule():
    # decompose_howe recounts joint highest weight vectors inside the bimodule
    pairs = decompose_howe(2, 3, 3)
    assert len(pairs) == 2


def test_joint_highest_weight_multiplicity_one():
    bim = build_bimodule(2, 3, 3)
    for wn, wm in decompose_howe(2, 3, 3):
        assert joint_highest_weight_dim(bim, pad(wn, 2), pad(wm, 3)) == 1


def test_hom_space_pinned():
    bim = build_bimodule(3, 3, 3)
    assert hom_space(bim, (2, 1, 0), (1, 1, 1)).dim == 2
    assert hom_space(bim, (1, 1, 1), (1, 1, 1)).dim == 1
    assert hom_space(bim, (2, 1, 0), (3, 0, 0)).dim == 0


def test_hom_space_validates_sizes():
    bim = build_bimodule(3, 3, 3)
    with pytest.raises(ValueError):
        hom_space(bim, (2, 2), (1, 1, 1))  # |lam| != N
    with pytest.raises(ValueError):
        hom_space(bim, (2, 1, 0), (1, 1))  # mu has wrong length


def test_hom_space_dims_are_kostka():
    for N in range(5):
        n = m = max(N, 1)
        bim = build_bimodule(n, m, N)
        for lam in partitions(N, max_parts=m, max_part=n):
            lv = conjugate(lam)
            for mu in compositions(N, n):
                hs = hom_space(bim, lam, mu)
                assert hs.dim == kostka(lv, mu), (lam, mu)


def test_hom_space_dims_are_kostka_to_n6():
    # every partition of N <= 6 fits one of these box shapes, so the
    # identity is checked for all admissible (lam, mu) without ever
    # building a bimodule larger than C(16,6)
    for N in (5, 6):
        boxes = [(1, N), (N, 1), (2, N), (N, 2), (3, 3), (3, 4), (4, 3), (4, 4)]
        for n, m in boxes:
            if n * m < N or math.comb(n * m, N) > 10_000:
                continue
            bim = build_bimodule(n, m, N)
            for lam in partitions(N, max_parts=m, max_part=n):
                lv = conjugate(lam)
                for mu in compositions(N, n):
                    assert hom_space(bim, lam, mu).dim == kostka(lv, mu), (
                        n, m, lam, mu,
                    )


def test_induced_module_matches_plucker_character():
    bim = build_bimodule(3, 3, 3)
    mod = induced_gln_module(bim, (2, 1, 0))
    assert mod.dim == 8
    counts = {}
    for w in mod.basis_weights:
        counts[w] = counts.get(w, 0) + 1
    assert counts == character_table((2, 1, 0), 3).entries
    verify_chevalley_relations(mod)
    assert decompose(mod).multiplicities == {(2, 1, 0): 1}


def test_induced_module_sym_cube():
    bim = build_bimodule(2, 3, 3)
    mod = induced_gln_module(bim, (1, 1, 1))
    assert mod.dim == 4
    assert decompose(mod).multiplicities == {(3, 0): 1}


def test_induced_module_determinant_power():
    bim = build_bimodule(2, 2, 4)
    mod = induced_gln_module(bim, (2, 2))
    assert mod.dim == 1
    assert mod.basis_weights == ((2, 2),)


def test_induced_module_full_sweep():
    for N in range(1, 5):
        bim = build_bimodule(3, 3, N)
        for lam in partitions(N, max_parts=3, max_part=3):
            mod = induced_gln_module(bim, lam)
            verify_chevalley_relations(mod)
            assert decompose(mod).multiplicities == {pad(conjugate(lam), 3): 1}


def test_induced_module_rejects_corrupted_gln_signs(monkeypatch):
    honest = skewhowe._move_images

    def unsigned_gln_moves(subset, m, move):
        along_rows = move[0]
        images = honest(subset, m, move)
        return [(1, image) for _, image in images] if along_rows else images

    # the gl(m) moves, and with them the hom spaces, stay correct; the
    # unsigned gl(n) moves send hom-space vectors outside the hom spaces
    monkeypatch.setattr(skewhowe, "_move_images", unsigned_gln_moves)
    with pytest.raises(InvariantViolation):
        induced_gln_module(build_bimodule(3, 3, 3), (2, 1))


def test_induced_module_rejects_hom_spaces_not_closed_under_f(monkeypatch):
    honest = skewhowe.hom_space

    def short_hom_space(bim, lam, mu):
        hs = honest(bim, lam, mu)
        if mu == (1, 1, 1):  # not the top weight (2, 1, 0): drop one vector
            return hs._replace(dim=hs.dim - 1, vectors=hs.vectors[1:])
        return hs

    # the F images of the weight spaces above regenerate the dropped
    # vector, so the module is larger than the hom spaces
    monkeypatch.setattr(skewhowe, "hom_space", short_hom_space)
    with pytest.raises(InvariantViolation, match=r"lam=\(2, 1\) sum to dimension 7"):
        induced_gln_module(build_bimodule(3, 3, 3), (2, 1))


SLICE_CASES = [(3, 3, 3), (3, 4, 5), (4, 3, 5), (4, 4, 6), (2, 5, 4)]


@pytest.mark.parametrize("n,m,N", SLICE_CASES)
def test_slices_are_the_filtered_combinations(n, m, N):
    expected = {}
    for s in itertools.combinations(range(n * m), N):
        wn = tuple(sum(1 for p in s if p // m == i) for i in range(n))
        wm = tuple(sum(1 for p in s if p % m == a) for a in range(m))
        expected.setdefault((wn, wm), []).append(sum(1 << p for p in s))
    for wn in compositions(N, n):
        for wm in compositions(N, m):
            assert list(_slice(n, m, wn, wm)) == expected.get((wn, wm), [])


@pytest.mark.parametrize("n,m,N", SLICE_CASES)
def test_slice_hom_dims_are_kostka(n, m, N):
    bim = build_bimodule(n, m, N)
    for lam in partitions(N, max_parts=m, max_part=n):
        lv = conjugate(lam)
        for mu in compositions(N, n):
            hs = hom_space(bim, lam, mu)
            assert hs.dim == kostka(lv, mu), (lam, mu)
            assert hs.slice_indices == _slice(n, m, mu, pad(lam, m))


def test_hom_space_vectors_are_highest_in_the_whole_wedge():
    """hom_space reads slices alone; its vectors, looked up by mask in the
    referee's whole wedge, have bi-weight (mu, lam) and are killed by every
    Em."""
    count = 0
    for n, m in itertools.product(range(1, 4), repeat=2):
        for N in range(min(n * m, 4) + 1):
            bim = build_bimodule(n, m, N)
            wedge, gln = whole_wedge(n, m, N, along_rows=True)
            _, glm = whole_wedge(n, m, N, along_rows=False)
            at = {s: t for t, s in enumerate(wedge)}
            for lam in partitions(N, max_parts=m, max_part=n):
                for mu in compositions(N, n):
                    hs = hom_space(bim, lam, mu)
                    for vec in hs.vectors:
                        count += 1
                        assert vec.keys() <= set(hs.slice_indices) & at.keys()
                        for s in vec:
                            assert gln.basis_weights[at[s]] == mu
                            assert glm.basis_weights[at[s]] == pad(lam, m)
                        column = {at[s]: v for s, v in vec.items()}
                        for e in glm.E:
                            assert e.apply(column) == {}, (n, m, lam, mu)
    assert count == 135


def test_wedge_is_never_built_for_hom_spaces(monkeypatch):
    # C(25, 6) = 177,100 is far above the guard, the largest slice (78)
    # below; the guard also bounds crossval's answer, here 210 rows of
    # n + m = 10 cells, so 2,100 is the smallest guard that lets it through
    monkeypatch.setenv("WEYLWORKS_MAX_DIM", "2100")
    report = cross_validate((2, 2, 1, 1), 5, 5)
    assert report.match
    assert len(report.rows) == math.comb(10, 4)
    # the one whole-wedge walk left, the commuting check, is refused at once
    with pytest.raises(ResourceLimitError):
        verify_commuting_actions(build_bimodule(5, 5, 6))


def test_slice_guard_refuses_large_slices(monkeypatch):
    # the slice of permutation matrices has 5! = 120 elements
    monkeypatch.setenv("WEYLWORKS_MAX_DIM", "100")
    bim = build_bimodule(5, 5, 5)
    with pytest.raises(ResourceLimitError):
        hom_space(bim, (1, 1, 1, 1, 1), (1, 1, 1, 1, 1))
    assert hom_space(bim, (1, 1, 1, 1, 1), (5, 0, 0, 0, 0)).dim == 1


def test_slice_is_counted_before_it_is_built(monkeypatch):
    # the refusal names the whole slice, not the first element past the guard
    monkeypatch.setenv("WEYLWORKS_MAX_DIM", "100")
    with pytest.raises(ResourceLimitError, match=r"dimension 120, above the guard 100"):
        _slice(5, 5, (1,) * 5, (1,) * 5)


def test_slice_table_is_shared_without_pruning():
    """_slice through one table shared by every call, in compositions
    order and again in reverse, equals _slice with a fresh table, on
    every (wn, wm) with n, m <= 4 whose parts fit (wn[i] <= m, wm[a] <=
    n).  The table after the reverse pass equals a snapshot taken after
    the first, so no call prunes an entry in place."""
    calls = 0
    for n, m in itertools.product(range(1, 5), repeat=2):
        pairs = [
            (wn, wm)
            for N in range(n * m + 1)
            for wn in compositions(N, n)
            if max(wn) <= m
            for wm in compositions(N, m)
            if max(wm) <= n
        ]
        calls += len(pairs)
        fresh = [_slice(n, m, wn, wm) for wn, wm in pairs]
        table = {}
        assert [_slice(n, m, wn, wm, table) for wn, wm in pairs] == fresh, (n, m)
        snapshot = {key: dict(out) for key, out in table.items()}
        backward = [_slice(n, m, wn, wm, table) for wn, wm in reversed(pairs)]
        assert backward == fresh[::-1], (n, m)
        assert table == snapshot, (n, m)
    assert calls == 47084


@st.composite
def bimodule_shapes(draw):
    """(n, m, lam) with n, m <= 4 and lam a partition fitting in n x m."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    total = draw(st.integers(0, n * m))
    shapes = list(partitions(total, max_parts=m, max_part=n))
    return n, m, draw(st.sampled_from(shapes))


@settings(max_examples=60, deadline=None)
@given(bimodule_shapes())
def test_hom_dims_are_the_hom_space_dims(case):
    n, m, lam = case
    bim = build_bimodule(n, m, sum(lam))
    dims = hom_dims(bim, lam)
    assert list(dims) == list(compositions(sum(lam), n))
    for mu, dim in dims.items():
        assert dim == hom_space(bim, lam, mu).dim, (lam, mu)


def test_field_terms_are_the_wedge_moves_with_sign_one():
    """A gl(m) raising move swaps two adjacent bits of one row field, so
    no factor lies between them: every term is _move_images' and every
    sign is +1."""
    for m in range(1, 8):
        raising = _moves(m, False, True)
        for field in range(1 << m):
            terms = _field_terms(m, field)
            assert terms == tuple(
                (k, sign, field ^ image)
                for k, move in enumerate(raising)
                for sign, image in _move_images(field, m, move)
            )
            assert all(sign == 1 for _, sign, _ in terms), (m, field)


def stacked_rows_referee(m, subsets):
    """_stacked_rows as a loop over every subset, raising move and term."""
    rows = {}
    for pos, s in enumerate(subsets):
        for move_no, move in enumerate(_moves(m, False, True)):
            for sign, image in _move_images(s, m, move):
                rows.setdefault((move_no, image), {})[pos] = sign
    return rows


def nonempty_slices(n, m):
    """Every non-empty bi-weight slice of Lambda(C^n (x) C^m), each once."""
    weights = set()
    for subset in range(1 << (n * m)):
        pairs = [divmod(p, m) for p in bits(subset)]
        weights.add((
            tuple(sum(1 for r, _ in pairs if r == i) for i in range(n)),
            tuple(sum(1 for _, c in pairs if c == a) for a in range(m)),
        ))
    for wn, wm in sorted(weights):
        yield wn, wm, _slice(n, m, wn, wm)


def kernel_in_row_order(rows, ncols):
    """Kernel basis of rows inserted in their own order into a plain
    EchelonBasis, with the free-column normalisation of linalg.kernel."""
    eb = EchelonBasis()
    for row in rows:
        eb.insert(row)
    basis = {f: {f: 1} for f in range(ncols) if f not in eb.rows}
    for p, row in eb.rows.items():
        for c, v in row.items():
            if c != p:
                basis[c][p] = -v
    return [dict(sorted(vec.items())) for vec in basis.values()]


def test_stacked_rows_and_last_first_kernel_match_the_referees():
    """On every non-empty slice with n, m <= 4: the row-local raising
    rows equal the per-move loop's, and the kernel that linalg.kernel
    takes last first (through hom_space when the gl(m) weight is a
    partition) is the kernel of the rows inserted in their own order,
    basis vector for basis vector (RREF is canonical), so it spans the
    same space.  When the gl(m) weight is a partition and mu is not
    sorted, mu's raising rows are the sorted mu's with every image
    subset and every column carried by the row permutation sigma of
    _certify_carried: the equivariance that lets hom_dims build rows at
    each orbit's sorted mu only."""
    count = carried = 0
    for n, m in itertools.product(range(1, 5), repeat=2):
        full = (1 << m) - 1
        for wn, wm, subsets in nonempty_slices(n, m):
            count += 1
            referee = stacked_rows_referee(m, subsets)
            assert _stacked_rows(m, subsets) == referee, (n, m, wn, wm)
            rows = list(referee.values())
            in_order = kernel_in_row_order(rows, len(subsets))
            if list(wm) == sorted(wm, reverse=True):
                hs = hom_space(build_bimodule(n, m, sum(wn)), wm, wn)
                assert hs.slice_indices == subsets, (n, m, wn, wm)
                assert list(hs.vectors) == [
                    {subsets[t]: v for t, v in vec.items()} for vec in in_order
                ], (n, m, wn, wm)
                rep = tuple(sorted(wn, reverse=True))
                if wn != rep:
                    carried += 1
                    sigma = sorted(range(n), key=lambda j: -wn[j])
                    blocks = [(i * m, to * m) for i, to in enumerate(sigma)]

                    def carry(s):
                        return sum((s >> frm & full) << to for frm, to in blocks)

                    rep_subsets = _slice(n, m, rep, wm)
                    where = {s: t for t, s in enumerate(subsets)}
                    column = [where[carry(s)] for s in rep_subsets]
                    rep_rows = _stacked_rows(m, rep_subsets)
                    assert _stacked_rows(m, subsets) == {
                        (k, carry(image)): {column[c]: v for c, v in row.items()}
                        for (k, image), row in rep_rows.items()
                    }, (n, m, wn, wm)
            else:
                assert kernel(rows, len(subsets)) == in_order, (n, m, wn, wm)
    assert (count, carried) == (20744, 2521)


def lose_one(subsets, foreign):
    return subsets[1:]


def gain_foreign(subsets, foreign):
    return subsets + (foreign,)


def swap_one(subsets, foreign):
    return subsets[1:] + (foreign,)


def damage_the_slice_of_112(monkeypatch, damage):
    """Make _slice damage the slice of the unsorted mu (1, 1, 2) at
    n = m = 3, lam (2, 1, 1); the fake forwards the orbit walk's shared
    table to the honest _slice.  Returns the bimodule and lam."""
    n, m, lam, target = 3, 3, (2, 1, 1), (1, 1, 2)
    honest = skewhowe._slice
    foreign = honest(n, m, (2, 1, 1), pad(lam, m))[0]

    def wrong_slice(n_, m_, wn, wm, table=None):
        subsets = honest(n_, m_, wn, wm, table)
        return damage(subsets, foreign) if tuple(wn) == target else subsets

    monkeypatch.setattr(skewhowe, "_slice", wrong_slice)
    return build_bimodule(n, m, sum(lam)), lam


WRONG_SLICE = r"mu=\(1, 1, 2\).*\(2, 1, 1\)"


@pytest.mark.parametrize("damage", [lose_one, gain_foreign, swap_one])
def test_hom_dims_certificate_catches_a_wrong_slice(monkeypatch, damage):
    """An unsorted mu's slice loses a subset, gains one of another
    weight, or both (so its size is right); only the certificate sees it."""
    bim, lam = damage_the_slice_of_112(monkeypatch, damage)
    with pytest.raises(InvariantViolation, match=WRONG_SLICE):
        hom_dims(bim, lam)


@pytest.mark.parametrize("damage", [lose_one, gain_foreign, swap_one])
def test_induced_module_certificate_catches_a_wrong_slice(monkeypatch, damage):
    """The induced module reads the same orbit walk as hom_dims, so the
    same damaged slice is refused before any seed is renamed."""
    bim, lam = damage_the_slice_of_112(monkeypatch, damage)
    with pytest.raises(InvariantViolation, match=WRONG_SLICE):
        induced_gln_module(bim, lam)


def test_carried_seeds_are_the_hom_spaces(monkeypatch):
    """On every (n, m, lam) with n, m <= 4, the seeds induced_gln_module
    hands to submodule at each mu, its sorted rep's hom-space vectors
    renamed through the carried slice, have the RREF rows of
    hom_space(bim, lam, mu).vectors: the per-mu elimination the induced
    module no longer runs stays here as the referee."""
    honest = skewhowe.submodule
    seeded = {}

    def spy(n, spaces, E, F):
        for mu, space in spaces.items():
            seeded[mu] = {p: dict(row) for p, row in space.rows.items()}
        return honest(n, spaces, E, F)

    monkeypatch.setattr(skewhowe, "submodule", spy)
    count = carried = 0
    for n, m in itertools.product(range(1, 5), repeat=2):
        for N in range(n * m + 1):
            bim = build_bimodule(n, m, N)
            for lam in partitions(N, max_parts=m, max_part=n):
                seeded.clear()
                induced_gln_module(bim, lam)
                assert sorted(seeded) == sorted(compositions(N, n))
                for mu, rows in seeded.items():
                    referee = EchelonBasis()
                    for vec in hom_space(bim, lam, mu).vectors:
                        referee.insert(vec)
                    assert rows == referee.rows, (n, m, lam, mu)
                    count += 1
                    if rows and list(mu) != sorted(mu, reverse=True):
                        carried += 1
    assert (count, carried) == (22433, 2521)


def test_hom_dims_certificate_sees_the_interior_row_of_a_run():
    """At lam (2,2,1), n = 5, m = 3, mu (2,0,1,1,1) is its sorted rep
    (2,1,1,1,0) carried by sigma = [0,2,3,4,1]: row 0 stays and rows 1-3
    move down one, so the carry is two runs.  One subset changed in row 2
    of rep, the interior row of the moved run, or in its image, row 3 of
    mu, keeps the slice's size and is still caught."""
    n, m, lam, rep, mu = 5, 3, (2, 2, 1), (2, 1, 1, 1, 0), (2, 0, 1, 1, 1)
    rep_subsets, subsets = (_slice(n, m, wn, pad(lam, m)) for wn in (rep, mu))
    assert len(rep_subsets) == len(subsets) == 12
    _certify_carried(m, rep, rep_subsets, mu, subsets)

    def damaged(slice_, row):
        """slice_ with its first subset's row field replaced by another
        field of the same weight."""
        s = slice_[0]
        field = s >> row * m & (1 << m) - 1
        weight = bin(field).count("1")
        other = next(f for f in range(1 << m) if f != field and bin(f).count("1") == weight)
        wrong = s ^ (field ^ other) << row * m
        assert wrong not in slice_
        return (wrong, *slice_[1:])

    message = r"mu=\(2, 0, 1, 1, 1\).*\(2, 1, 1, 1, 0\)"
    with pytest.raises(InvariantViolation, match=message):
        _certify_carried(m, rep, damaged(rep_subsets, 2), mu, subsets)
    with pytest.raises(InvariantViolation, match=message):
        _certify_carried(m, rep, rep_subsets, mu, damaged(subsets, 3))
