import functools
import hashlib
import itertools
import math
import random
import sys
from collections import deque
from fractions import Fraction

import pytest

from weylworks import glmodules, linalg
from weylworks.characters import character, character_table, dim_irrep
from weylworks.errors import InvariantViolation, ResourceLimitError, check_dimension
from weylworks.glmodules import (
    ExplicitModule,
    _kronecker_generators,
    _mask,
    _move_images,
    _sym_ext_power,
    adjoint_module,
    decompose,
    ext_power,
    highest_weight_vectors,
    irrep_plucker,
    standard_module,
    submodule,
    sym_power,
    tensor,
    verify_chevalley_relations,
    wedge_replace,
    weight_decompose,
)
from weylworks.linalg import EchelonBasis, RatMat
from weylworks.weights import (
    compositions,
    conjugate,
    pad,
    partitions,
    simple_root,
    weight_diff,
    weight_sum,
)


def module_character(mod):
    counts = {}
    for w in mod.basis_weights:
        counts[w] = counts.get(w, 0) + 1
    return counts


def test_standard_module():
    mod = standard_module(2)
    assert mod.dim == 2
    assert mod.basis_weights == ((1, 0), (0, 1))
    assert mod.E[0].entries() == [(0, 1, 1)]
    assert mod.F[0].entries() == [(1, 0, 1)]


def test_standard_module_rank_one():
    mod = standard_module(1)
    assert mod.dim == 1
    assert mod.E == () and mod.F == ()


def test_standard_module_highest_weight():
    hwv = highest_weight_vectors(standard_module(3))
    assert [w for w, _ in hwv] == [(1, 0, 0)]


def test_sym_power_weights():
    mod = sym_power(3, 2)
    assert sorted(mod.basis_weights, reverse=True) == [
        (3, 0), (2, 1), (1, 2), (0, 3),
    ]
    assert sym_power(0, 3).basis_weights == ((0, 0, 0),)
    assert module_character(sym_power(1, 3)) == module_character(standard_module(3))


def test_ext_power_weights():
    det = ext_power(3, 3)
    assert det.dim == 1 and det.basis_weights == ((1, 1, 1),)
    mod = ext_power(2, 3)
    assert mod.dim == 3
    assert set(mod.basis_weights) == {(1, 1, 0), (1, 0, 1), (0, 1, 1)}
    with pytest.raises(ValueError):
        ext_power(4, 3)


def test_tensor_shapes():
    std = standard_module(2)
    sq = tensor(std, std)
    assert sq.dim == 4
    with pytest.raises(ValueError):
        tensor(standard_module(2), standard_module(3))
    # tensoring with the trivial module leaves the character alone
    triv = sym_power(0, 2)
    assert module_character(tensor(std, triv)) == module_character(std)
    # tensoring with det shifts every weight by (1,...,1)
    det = ext_power(2, 2)
    shifted = module_character(tensor(std, det))
    assert shifted == {(2, 1): 1, (1, 2): 1}


def test_adjoint_module():
    adj = adjoint_module(3)
    assert adj.dim == 8
    hwv = highest_weight_vectors(adj)
    assert [w for w, _ in hwv] == [(1, 0, -1)]
    assert len(hwv[0][1]) == 1
    assert module_character(adj)[(0, 0, 0)] == 2
    adj2 = adjoint_module(2)
    assert adj2.dim == 3
    assert sorted(adj2.basis_weights, reverse=True) == [(1, -1), (0, 0), (-1, 1)]


def test_weight_decompose():
    classes = weight_decompose(sym_power(3, 2))
    assert len(classes) == 4
    assert all(len(ix) == 1 for ix in classes.values())
    classes = weight_decompose(adjoint_module(3))
    assert len(classes) == 7
    assert len(classes[(0, 0, 0)]) == 2
    triv = weight_decompose(sym_power(0, 3))
    assert triv == {(0, 0, 0): (0,)}


def test_highest_weight_vectors_examples():
    assert [w for w, _ in highest_weight_vectors(sym_power(3, 2))] == [(3, 0)]
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            hwv = highest_weight_vectors(ext_power(k, n))
            assert [w for w, _ in hwv] == [(1,) * k + (0,) * (n - k)]
            assert len(hwv[0][1]) == 1
    std = standard_module(2)
    hwv = highest_weight_vectors(tensor(std, std))
    assert [w for w, _ in hwv] == [(2, 0), (1, 1)]


def test_highest_weight_vectors_spare_back_substitution(monkeypatch):
    """decompose's joint kernel goes through linalg.kernel, which inserts
    rows last first.  Counted on adjoint^(x)3 of gl(4): the stored rows
    that EchelonBasis.insert back-substitutes into, 9,289 when the rows
    went in as built and 431 last first."""
    mod = tensor(tensor(adjoint_module(4), adjoint_module(4)), adjoint_module(4))
    insert_code = EchelonBasis.insert.__code__
    honest = linalg.vec_add_scaled
    back_substituted = 0

    def counted(target, src, coeff):
        nonlocal back_substituted
        if sys._getframe(1).f_code is insert_code:
            back_substituted += 1
        honest(target, src, coeff)

    monkeypatch.setattr(linalg, "vec_add_scaled", counted)
    hwv = highest_weight_vectors(mod)
    assert sum(len(vectors) for _, vectors in hwv) == 45
    assert 0 < back_substituted <= 1000, back_substituted


def test_decompose_pinned():
    std = standard_module(2)
    assert decompose(tensor(std, std)).multiplicities == {(2, 0): 1, (1, 1): 1}
    assert decompose(ext_power(2, 4)).multiplicities == {(1, 1, 0, 0): 1}
    twisted = tensor(adjoint_module(3), ext_power(3, 3))
    assert decompose(twisted).multiplicities == {(2, 1, 0): 1}


def test_decompose_dimension_identity():
    std3 = standard_module(3)
    cases = [
        standard_module(4),
        sym_power(4, 3),
        ext_power(2, 4),
        adjoint_module(4),
        tensor(std3, std3),
        tensor(sym_power(2, 3), ext_power(2, 3)),
        tensor(adjoint_module(3), standard_module(3)),
    ]
    for mod in cases:
        dec = decompose(mod)
        assert sum(
            mult * dim_irrep(lam, mod.n) for lam, mult in dec.multiplicities.items()
        ) == mod.dim
        # recompute the full character from the decomposition
        char = module_character(mod)
        for mu in char:
            total = sum(
                mult * character(lam, mu)
                for lam, mult in dec.multiplicities.items()
            )
            assert total == char[mu], (mod.n, mu)


def test_chevalley_relations_across_constructors():
    mods = [
        standard_module(4),
        sym_power(3, 3),
        ext_power(2, 4),
        adjoint_module(3),
        tensor(sym_power(2, 2), sym_power(2, 2)),
        tensor(ext_power(2, 3), standard_module(3)),
        irrep_plucker((2, 1), 3),
        irrep_plucker((2, 2, 1), 3),
    ]
    for mod in mods:
        verify_chevalley_relations(mod)
    # doubling F keeps every weight shift but makes [E_i, F_i] = 2 H_i
    for mod in mods[:4]:
        doubled = tuple(
            RatMat.from_entries(
                f.nrows, f.ncols, [(r, c, 2 * v) for r, c, v in f.entries()]
            )
            for f in mod.F
        )
        bad = ExplicitModule(mod.n, mod.dim, mod.basis_weights, mod.E, doubled)
        with pytest.raises(InvariantViolation, match=r"\[E_"):
            verify_chevalley_relations(bad)


def test_decompose_rejects_a_non_dominant_highest_weight():
    # C^2 with E = 0: e_2, of the non-dominant weight (0, 1), is a
    # highest-weight vector
    std = standard_module(2)
    zero = (RatMat.from_entries(2, 2, []),)
    mod = ExplicitModule(2, 2, std.basis_weights, zero, std.F)
    with pytest.raises(InvariantViolation, match=r"non-dominant weight \(0, 1\)$"):
        decompose(mod)


def test_decompose_checks_the_dimension_sum():
    # weights (2, 0) and (1, 1) with E = 0 claim V(2,0) + V(1,1), of
    # dimension 3 + 1, in a module of dimension 2
    zero = (RatMat.from_entries(2, 2, []),)
    mod = ExplicitModule(2, 2, ((2, 0), (1, 1)), zero, zero)
    with pytest.raises(InvariantViolation, match="dimension 4, module has 2$"):
        decompose(mod)


def test_chevalley_relations_check_the_weight_shifts():
    # E and F of C^2 swapped: "E_0" sends e_1 of weight (1, 0) to e_2
    std = standard_module(2)
    swapped = ExplicitModule(std.n, std.dim, std.basis_weights, std.F, std.E)
    with pytest.raises(
        InvariantViolation, match=r"^E_0 maps weight \(1, 0\) outside weight \(2, -1\)$"
    ):
        verify_chevalley_relations(swapped)


def test_irrep_plucker_row_is_sym():
    for k in range(5):
        mod = irrep_plucker((k,), 2)
        assert module_character(mod) == module_character(sym_power(k, 2))


def test_irrep_plucker_column_is_ext():
    for n in (2, 3, 4):
        for k in range(1, n + 1):
            mod = irrep_plucker((1,) * k, n)
            assert module_character(mod) == module_character(ext_power(k, n))


def test_irrep_plucker_character_and_uniqueness():
    for n in (2, 3, 4):
        for total in range(7):
            for lam in partitions(total, max_parts=n):
                mod = irrep_plucker(lam, n)
                assert mod.dim == dim_irrep(lam, n), (lam, n)
                table = character_table(lam, n)
                assert module_character(mod) == table.entries
                hwv = highest_weight_vectors(mod)
                assert len(hwv) == 1
                assert len(hwv[0][1]) == 1
                assert hwv[0][0] == pad(lam, n)


def test_irrep_plucker_rejects_long_shapes():
    with pytest.raises(ValueError):
        irrep_plucker((1, 1, 1), 2)


@pytest.mark.parametrize(
    "factors",
    [
        [ext_power(2, 4)],  # one column, paired with the trivial module
        [ext_power(h, 5) for h in (4, 3, 2, 1)],  # the columns of (4,3,2,1)
        [adjoint_module(3), sym_power(2, 3), standard_module(3)],
    ],
    ids=["one-column", "columns-of-4321", "three-factors"],
)
def test_kronecker_generators_match_the_built_tensor_product(factors):
    built = functools.reduce(tensor, factors)
    E, F = _kronecker_generators(factors)
    rng = random.Random(0)
    vectors = [{key: 1} for key in range(built.dim)]
    for _ in range(30):
        keys = rng.sample(range(built.dim), min(built.dim, rng.randint(1, 8)))
        # numerators and denominators that give ints and fractions alike
        coeffs = [Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)) for _ in keys]
        vectors.append(dict(zip(keys, coeffs)))
    for apply, mat in zip(E + F, built.E + built.F):
        for vec in vectors:
            image = apply(vec)
            assert image == mat.apply(vec)
            assert all(type(x) is int or x.denominator != 1 for x in image.values())


def test_irrep_plucker_never_builds_the_ambient_product(monkeypatch):
    built = []

    def recording_tensor(a, b):
        mod = tensor(a, b)
        built.append(mod.dim)
        return mod

    monkeypatch.setattr(glmodules, "tensor", recording_tensor)
    # the columns have heights 4, 2, 2, 1, 1, so the factors are Lambda^4,
    # Sym^2(Lambda^2) and Sym^2(C^5): the ambient has 5*55*15 = 4,125
    # dimensions, and the two blocks 275 and 15
    mod = irrep_plucker((5, 3, 1, 1, 0), 5)
    assert mod.dim == dim_irrep((5, 3, 1, 1, 0), 5)
    assert built and max(built) <= 275


def counting(monkeypatch, name):
    """Count the calls glmodules makes to its global name."""
    calls = [0]
    honest = getattr(glmodules, name)

    def counted(*args):
        calls[0] += 1
        return honest(*args)

    monkeypatch.setattr(glmodules, name, counted)
    return calls


def test_irrep_plucker_guards_a_long_row_in_few_calls(monkeypatch):
    # one height with 10^6 columns of C(1, 1) = 1: the guard stops
    # multiplying once more columns cannot change its verdict
    calls = counting(monkeypatch, "check_dimension")
    assert irrep_plucker((10**6,), 1).dim == 1
    assert calls[0] <= 30


def test_irrep_plucker_reads_only_the_roots_that_reached_a_weight(monkeypatch):
    # each queued weight of C^30 reads only the roots noted there, not
    # all 29; and e_j has one factor, at j, which only E_(j-1) and F_j
    # can move, so each weight reads at most one weight above it and
    # queues at most one below it (queueing every w - alpha_i took 1,740
    # weight_sum and 1,770 weight_diff calls)
    sums = counting(monkeypatch, "weight_sum")
    diffs = counting(monkeypatch, "weight_diff")
    assert irrep_plucker((1,), 30).dim == 30
    assert sums[0] <= 90 and diffs[0] <= 90


def running_product_verdict(shape, n):
    """irrep_plucker's guard before any module is built, checked the long
    way: lambda_1, then n, then the running product over every column."""
    try:
        check_dimension(max(shape, default=0))
        if shape:
            check_dimension(n)
            dim = 1
            for h in conjugate(shape):
                dim *= math.comb(n, h)
                check_dimension(dim)
    except ResourceLimitError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("cap", [7, 60, 1000, 40000])
def test_irrep_plucker_refuses_what_the_running_product_refuses(monkeypatch, cap):
    monkeypatch.setenv("WEYLWORKS_MAX_DIM", str(cap))
    # the guard's verdict only; what passes it is built by other tests
    monkeypatch.setattr(glmodules, "_kronecker_generators", lambda factors: ([], []))
    monkeypatch.setattr(glmodules, "submodule", lambda *args: None)
    for n in range(1, 7):
        for size in range(9):
            for shape in partitions(size, n):
                expected = running_product_verdict(shape, n)
                try:
                    irrep_plucker(shape, n)
                    got = None
                except ResourceLimitError as exc:
                    got = str(exc)
                assert got == expected, (cap, shape, n)


def test_sym_ext_power_is_the_orbit_sums_in_the_tensor_power():
    # the vector of a label is the sum of its distinct rearrangements in
    # the a-th tensor power of Lambda^k, whose key is mixed radix with the
    # first factor most significant; each generator must commute with that
    # embedding.  The labels come in compositions order of their count
    # vectors, so the weights are pinned in order, not only as a multiset.
    for n in range(1, 5):
        for k in range(1, n + 1):
            ext = ext_power(k, n)
            for a in range(1, 4):
                mod = _sym_ext_power(a, k, n)
                counts = list(compositions(a, ext.dim))
                assert mod.basis_weights == tuple(
                    tuple(sum(c * w[j] for c, w in zip(count, ext.basis_weights))
                          for j in range(n))
                    for count in counts
                ), (a, k, n)
                verify_chevalley_relations(mod)
                power = functools.reduce(tensor, [ext] * a)
                embed = []
                for count in counts:
                    seq = [t for t, c in enumerate(count) for _ in range(c)]
                    embed.append({
                        sum(t * ext.dim ** (a - 1 - i) for i, t in enumerate(p)): 1
                        for p in set(itertools.permutations(seq))
                    })
                for g, h in zip(mod.E + mod.F, power.E + power.F):
                    for col, vec in enumerate(embed):
                        image = {}
                        for row, coeff in g.column(col).items():
                            for key in embed[row]:
                                image[key] = coeff  # orbit sums are disjoint
                        assert h.apply(vec) == image, (a, k, n, col)
                if a == 1:
                    assert_same_module(mod, ext)


def test_sym_ext_power_takes_the_targets_multiplicity():
    # on Sym^2(C^2), F_0 sends x_1 x_2 to 2 x_2 x_2 in the orbit-sum basis
    # (e_1 e_2 + e_2 e_1 goes to 2 e_2 e_2), and to x_2^2 on sym_power's
    # monomials: label (1, 1) is column 1 and (0, 2) is row 2 in both
    assert _sym_ext_power(2, 1, 2).F[0].column(1) == {2: 2}
    assert sym_power(2, 2).F[0].column(1) == {2: 1}


def _spaces(vectors_by_weight):
    spaces = {}
    for w, vectors in vectors_by_weight.items():
        spaces[w] = EchelonBasis()
        for vec in vectors:
            spaces[w].insert(vec)
    return spaces


def test_submodule_rejects_spaces_not_closed_under_the_generators():
    std = standard_module(2)
    gens = ([m.apply for m in std.E], [m.apply for m in std.F])
    # e_1 alone generates C^2: F_0 e_1 = e_2
    full = submodule(2, _spaces({(1, 0): [{0: 1}]}), *gens)
    assert full.basis_weights == std.basis_weights
    assert [m.entries() for m in full.E + full.F] == [
        m.entries() for m in std.E + std.F
    ]
    # E_0 e_2 = e_1 has weight (1, 0), which has no space
    with pytest.raises(InvariantViolation, match="leaves the submodule"):
        submodule(2, _spaces({(0, 1): [{1: 1}]}), *gens)
    # in C^2 (x) C^2, E_0 (e_2 (x) e_2) = e_1 (x) e_2 + e_2 (x) e_1, which is
    # not in the span of e_1 (x) e_2 - e_2 (x) e_1 although its weight (1, 1)
    # has a space; (2, 0) has none, so no F image enlarges that space
    sq = tensor(std, std)
    spaces = _spaces({(1, 1): [{1: 1, 2: -1}], (0, 2): [{3: 1}]})
    with pytest.raises(InvariantViolation, match="outside the spanned subspace"):
        submodule(2, spaces, [m.apply for m in sq.E], [m.apply for m in sq.F])


def reference_irrep_plucker(lam, n):
    """irrep_plucker by a breadth-first closure of the highest vector under
    F, then a second pass that applies every generator to every basis
    vector and expands the image in its weight space."""
    shape = tuple(lam)
    heights = conjugate(shape)
    if not heights:
        return sym_power(0, n)
    E, F = _kronecker_generators([ext_power(h, n) for h in heights])
    bases = {pad(shape, n): EchelonBasis()}
    queue = deque([(pad(shape, n), bases[pad(shape, n)].insert({0: 1}))])
    while queue:
        w, vec = queue.popleft()
        for i in range(n - 1):
            image = F[i](vec)
            if image:
                tw = weight_diff(w, simple_root(i, n))
                stored = bases.setdefault(tw, EchelonBasis()).insert(image)
                if stored is not None:
                    queue.append((tw, stored))
    position, vectors, weights = {}, [], []
    for w in sorted((w for w in bases if bases[w].rows), reverse=True):
        rows = bases[w].rows
        position[w] = {p: len(vectors) + k for k, p in enumerate(sorted(rows))}
        vectors.extend(rows[p] for p in position[w])
        weights.extend([w] * len(rows))
    dim = len(vectors)

    def restricted(maps, shift):
        mats = []
        for i, apply in enumerate(maps):
            entries = []
            for col, (w, vec) in enumerate(zip(weights, vectors)):
                image = apply(vec)
                if image:
                    tw = shift(w, simple_root(i, n))
                    for p, coeff in bases[tw].coords(image).items():
                        entries.append((position[tw][p], col, coeff))
            mats.append(RatMat.from_entries(dim, dim, entries))
        return tuple(mats)

    return ExplicitModule(
        n, dim, tuple(weights), restricted(E, weight_sum), restricted(F, weight_diff)
    )


def test_irrep_plucker_matches_the_two_pass_reference():
    cases = [(lam, n) for n in range(1, 5) for total in range(7)
             for lam in partitions(total, max_parts=n)]
    # repeated columns at n = 5: (5,3,1,1,0) has two columns each of
    # heights 2 and 1, and (3,3,0,0,0) three of height 2
    cases += [((4, 3, 2, 1, 0), 5), ((5, 3, 1, 1, 0), 5), ((3, 3, 0, 0, 0), 5)]
    for lam, n in cases:
        assert_same_module(irrep_plucker(lam, n), reference_irrep_plucker(lam, n))


@pytest.mark.parametrize("lam", [(4, 3, 2, 1, 0), (5, 3, 1, 1, 0)])
def test_irrep_plucker_applies_each_generator_once_per_basis_vector(monkeypatch, lam):
    calls = {"E": 0, "F": 0}

    def counted(name, apply):
        def wrapper(vec):
            calls[name] += 1
            return apply(vec)

        return wrapper

    def counting_generators(factors):
        E, F = _kronecker_generators(factors)
        return [counted("E", e) for e in E], [counted("F", f) for f in F]

    monkeypatch.setattr(glmodules, "_kronecker_generators", counting_generators)
    mod = irrep_plucker(lam, 5)
    assert mod.dim == dim_irrep(lam, 5)
    # E_i needs a factor at i + 1 to move, and F_i one at i
    pairs = [(w[i], w[i + 1]) for w in mod.basis_weights for i in range(4)]
    assert calls == {
        "E": sum(1 for _, below in pairs if below),
        "F": sum(1 for at, _ in pairs if at),
    }


def reference_wedge_replace(subset, old, new):
    """Replace one wedge factor by re-sorting and counting the factors
    strictly between old and new."""
    if new in subset:
        return None
    others = [x for x in subset if x != old]
    lo, hi = min(old, new), max(old, new)
    crossings = sum(1 for x in others if lo < x < hi)
    return (-1 if crossings % 2 else 1), tuple(sorted(others + [new]))


def as_mask(hit):
    """A reference (sign, sorted tuple) result with its subset as a mask."""
    return None if hit is None else (hit[0], _mask(hit[1]))


def test_wedge_replace_matches_the_resorting_reference():
    for size in range(1, 7):
        for k in range(1, size + 1):
            for subset in itertools.combinations(range(size), k):
                for old in subset:
                    for new in range(size + 1):
                        expected = as_mask(reference_wedge_replace(subset, old, new))
                        assert wedge_replace(_mask(subset), old, new) == expected


def test_move_images_match_the_resorting_reference():
    """Every subset of every n x m grid up to 3 x 3, every row move and
    every column move, against reference_wedge_replace on sorted tuples."""
    for n, m in itertools.product(range(1, 4), repeat=2):
        moves = [(True, frm, to) for frm in range(n) for to in range(n) if frm != to]
        moves += [(False, frm, to) for frm in range(m) for to in range(m) if frm != to]
        for k in range(n * m + 1):
            for subset in itertools.combinations(range(n * m), k):
                for move in moves:
                    along_rows, frm, to = move
                    shift = (to - frm) * m if along_rows else to - frm
                    expected = [
                        as_mask(reference_wedge_replace(subset, p, p + shift))
                        for p in subset
                        if (p // m if along_rows else p % m) == frm
                    ]
                    expected = [hit for hit in expected if hit is not None]
                    assert _move_images(_mask(subset), m, move) == expected, (
                        n, m, subset, move
                    )


def test_masks_and_bits_round_trip():
    def bits(s):
        return [p for p in range(s.bit_length()) if s >> p & 1]

    for size in range(8):
        for s in range(1 << size):
            assert _mask(bits(s)) == s
        for k in range(size + 1):
            for subset in itertools.combinations(range(size), k):
                assert bits(_mask(subset)) == list(subset)


def reference_sym_power(k, n):
    """Sym^k(C^n) with E_i and F_i written out as derivations on monomials."""
    basis = list(compositions(k, n))
    index = {a: t for t, a in enumerate(basis)}
    dim = len(basis)
    E, F = [], []
    for i in range(n - 1):
        e_entries, f_entries = [], []
        for t, a in enumerate(basis):
            if a[i + 1] > 0:
                target = weight_sum(a, simple_root(i, n))
                e_entries.append((index[target], t, a[i + 1]))
            if a[i] > 0:
                target = weight_diff(a, simple_root(i, n))
                f_entries.append((index[target], t, a[i]))
        E.append(RatMat.from_entries(dim, dim, e_entries))
        F.append(RatMat.from_entries(dim, dim, f_entries))
    return ExplicitModule(n, dim, tuple(basis), tuple(E), tuple(F))


def _matmul_int(a, b, n):
    return [
        [sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)
    ]


def reference_adjoint_module(n):
    """sl(n) with every bracket taken on dense n x n integer matrices and
    read back in the basis of off-diagonal units, then H_i."""
    basis_mats = []
    weights = []
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            mat = [[0] * n for _ in range(n)]
            mat[a][b] = 1
            basis_mats.append(mat)
            weights.append(
                tuple(1 if j == a else -1 if j == b else 0 for j in range(n))
            )
    for i in range(n - 1):
        mat = [[0] * n for _ in range(n)]
        mat[i][i] = 1
        mat[i + 1][i + 1] = -1
        basis_mats.append(mat)
        weights.append((0,) * n)
    dim = len(basis_mats)

    def coords_of(mat):
        # off-diagonal entries map to matrix units; the diagonal (trace 0)
        # expands in the H_i with coefficients given by partial sums
        out = {}
        t = 0
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                if mat[a][b]:
                    out[t] = mat[a][b]
                t += 1
        running = 0
        for i in range(n - 1):
            running += mat[i][i]
            if running:
                out[dim - (n - 1) + i] = running
        return out

    E, F = [], []
    for i in range(n - 1):
        gen_e = [[0] * n for _ in range(n)]
        gen_e[i][i + 1] = 1
        gen_f = [[0] * n for _ in range(n)]
        gen_f[i + 1][i] = 1
        e_entries, f_entries = [], []
        for t, mat in enumerate(basis_mats):
            for gen, out in ((gen_e, e_entries), (gen_f, f_entries)):
                left, right = _matmul_int(gen, mat, n), _matmul_int(mat, gen, n)
                bracket = [
                    [x - y for x, y in zip(row1, row2)]
                    for row1, row2 in zip(left, right)
                ]
                for r, v in coords_of(bracket).items():
                    out.append((r, t, v))
        E.append(RatMat.from_entries(dim, dim, e_entries))
        F.append(RatMat.from_entries(dim, dim, f_entries))
    return ExplicitModule(n, dim, tuple(weights), tuple(E), tuple(F))


def reference_ext_power(k, n):
    """Lambda^k(C^n) with E_i and F_i applied factor by factor, signs from
    the re-sorting reference_wedge_replace."""
    basis = list(itertools.combinations(range(n), k))
    index = {s: t for t, s in enumerate(basis)}
    weights = tuple(tuple(1 if j in s else 0 for j in range(n)) for s in basis)
    families = []
    for old, new in ((1, 0), (0, 1)):  # E_i moves e_{i+1} to e_i, F_i back
        mats = []
        for i in range(n - 1):
            entries = []
            for t, s in enumerate(basis):
                if i + old in s:
                    hit = reference_wedge_replace(s, i + old, i + new)
                    if hit is not None:
                        entries.append((index[hit[1]], t, hit[0]))
            mats.append(RatMat.from_entries(len(basis), len(basis), entries))
        families.append(tuple(mats))
    return ExplicitModule(n, len(basis), weights, *families)


def assert_same_module(mod, ref):
    assert (mod.n, mod.dim, mod.basis_weights) == (ref.n, ref.dim, ref.basis_weights)
    assert [m.entries() for m in mod.E] == [m.entries() for m in ref.E]
    assert [m.entries() for m in mod.F] == [m.entries() for m in ref.F]
    scalars = [v for m in mod.E + mod.F for _, _, v in m.entries()]
    scalars += [x for w in mod.basis_weights for x in w]
    assert all(type(x) is int for x in scalars)


def test_labelled_constructors_match_the_references():
    for n in range(2, 9):
        assert_same_module(adjoint_module(n), reference_adjoint_module(n))
    for n in range(1, 7):
        for k in range(6):
            assert_same_module(sym_power(k, n), reference_sym_power(k, n))
        for k in range(n + 1):
            assert_same_module(ext_power(k, n), reference_ext_power(k, n))


def test_labelled_builders_keep_their_pinned_digest():
    """The weights and E/F entries of 99 small labelled modules, pinned by
    one sha256 taken before the four builders shared _labelled_module."""
    digest = hashlib.sha256()
    mods = []
    for n in range(1, 6):
        mods += [sym_power(k, n) for k in range(6)]
        mods += [ext_power(k, n) for k in range(n + 1)]
        mods += [_sym_ext_power(a, k, n) for a in range(1, 4) for k in range(1, n + 1)]
    mods += [adjoint_module(n) for n in range(2, 6)]
    for mod in mods:
        entries = [m.entries() for m in mod.E], [m.entries() for m in mod.F]
        digest.update(repr((mod.basis_weights, *entries)).encode())
    assert len(mods) == 99
    assert digest.hexdigest() == (
        "41152daecd066eb354ecf401909a2d84c6fc3ea784b9bd4c68da87183296f1bd"
    )
