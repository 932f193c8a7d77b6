import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from weylworks import skewhowe
from weylworks.characters import character_table, dim_irrep, kostka
from weylworks.cli import cross_validate
from weylworks.errors import InvariantViolation, ResourceLimitError
from weylworks.glmodules import decompose, ext_power, verify_chevalley_relations
from weylworks.linalg import RatMat
from weylworks.skewhowe import (
    _slice,
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


def test_build_bimodule_dimensions():
    bim = build_bimodule(2, 3, 3)
    assert bim.dim == math.comb(6, 3) == 20
    assert build_bimodule(2, 2, 0).dim == 1
    assert build_bimodule(3, 2, 6).dim == 1


def test_ext_power_is_the_one_column_bimodule():
    for n in range(1, 6):
        for k in range(n + 1):
            ext = ext_power(k, n)
            wedge = build_bimodule(n, 1, k).gln_module()
            assert (ext.n, ext.dim, ext.basis_weights) == (
                wedge.n, wedge.dim, wedge.basis_weights
            )
            for ours, theirs in zip(ext.E + ext.F, wedge.E + wedge.F, strict=True):
                assert (ours.nrows, ours.ncols) == (theirs.nrows, theirs.ncols)
                assert ours.entries() == theirs.entries()


def test_bimodule_weights_count_pairs():
    bim = build_bimodule(2, 3, 2)
    for subset, wn, wm in zip(bim.basis, bim.gln_weights, bim.glm_weights):
        pairs = [divmod(p, bim.m) for p in bits(subset)]
        for i in range(bim.n):
            assert wn[i] == sum(1 for r, _ in pairs if r == i)
        for a in range(bim.m):
            assert wm[a] == sum(1 for _, c in pairs if c == a)


def test_rank_one_bimodule_is_exterior_power():
    bim = build_bimodule(1, 4, 2)
    dec = decompose(bim.glm_module())
    assert dec.multiplicities == {(1, 1, 0, 0): 1}


def test_commuting_actions_small():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            for N in range(min(n * m, 4) + 1):
                verify_commuting_actions(build_bimodule(n, m, N))


def test_commuting_actions_check_names_the_failing_pair():
    bim = build_bimodule(2, 2, 2)
    em = bim.Em[0]
    (r, c, v), *rest = em.entries()
    doctored = RatMat.from_entries(em.nrows, em.ncols, [(r, c, -v), *rest])
    # Em is a cached_property: replace the cached family with one whose
    # first generator has one entry negated
    bim.__dict__["Em"] = (doctored, *bim.Em[1:])
    with pytest.raises(
        InvariantViolation,
        match=r"^En_0 and Em_0 fail to commute on basis vector \d+ of the wedge",
    ):
        verify_commuting_actions(bim)


def test_bimodule_generators_satisfy_bracket():
    bim = build_bimodule(2, 3, 3)
    verify_chevalley_relations(bim.gln_module())
    verify_chevalley_relations(bim.glm_module())


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
            return dataclasses.replace(hs, dim=hs.dim - 1, vectors=hs.vectors[1:])
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
    whole wedge, have bi-weight (mu, lam) and are killed by every Em."""
    count = 0
    for n, m in itertools.product(range(1, 4), repeat=2):
        for N in range(min(n * m, 4) + 1):
            bim = build_bimodule(n, m, N)
            at = {s: t for t, s in enumerate(bim.basis)}
            for lam in partitions(N, max_parts=m, max_part=n):
                for mu in compositions(N, n):
                    hs = hom_space(bim, lam, mu)
                    for vec in hs.vectors:
                        count += 1
                        assert vec.keys() <= set(hs.slice_indices) & at.keys()
                        for s in vec:
                            assert bim.gln_weights[at[s]] == mu
                            assert bim.glm_weights[at[s]] == pad(lam, m)
                        column = {at[s]: v for s, v in vec.items()}
                        for e in bim.Em:
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
    with pytest.raises(ResourceLimitError):
        build_bimodule(5, 5, 6).basis


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


def gln_weight(subset, n, m):
    return tuple(sum(1 for p in bits(subset) if p // m == i) for i in range(n))


def flip_sign(rows):
    row = next(iter(rows.values()))
    col = next(iter(row))
    row[col] = -row[col]


def drop_image(rows):
    row = next(row for row in rows.values() if len(row) > 1)
    del row[next(iter(row))]


def misplace(rows):
    """Move one entry, value kept, to a column its row does not use."""
    cols = {col for row in rows.values() for col in row}
    row = next(row for row in rows.values() if cols - row.keys())
    free = min(cols - row.keys())
    row[free] = row.pop(next(iter(row)))


@pytest.mark.parametrize("damage", [flip_sign, drop_image, misplace])
def test_hom_dims_certificate_catches_a_corrupted_row(monkeypatch, damage):
    """One entry of one unsorted mu's raising rows is wrong; the sorted
    representative's rows stay honest, so only the certificate sees it."""
    n, m, lam, target = 3, 3, (2, 1, 1), (1, 1, 2)
    honest = skewhowe._stacked_rows

    def stacked_rows(m_, subsets, moves):
        rows = honest(m_, subsets, moves)
        if subsets and gln_weight(subsets[0], n, m) == target:
            damage(rows)
        return rows

    bim = build_bimodule(n, m, sum(lam))
    assert hom_dims(bim, lam)[target] == kostka(conjugate(lam), target) == 2
    monkeypatch.setattr(skewhowe, "_stacked_rows", stacked_rows)
    with pytest.raises(InvariantViolation, match=r"mu=\(1, 1, 2\).*\(2, 1, 1\)"):
        hom_dims(bim, lam)
