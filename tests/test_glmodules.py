import itertools

import pytest

from weylworks.characters import character, character_table, dim_irrep
from weylworks.errors import InvariantViolation
from weylworks.glmodules import (
    ExplicitModule,
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
from weylworks.linalg import EchelonBasis
from weylworks.weights import partitions


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
        doubled = tuple(f + f for f in mod.F)
        bad = ExplicitModule(mod.n, mod.dim, mod.basis_weights, mod.E, doubled)
        with pytest.raises(InvariantViolation, match=r"\[E_"):
            verify_chevalley_relations(bad)


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
                from weylworks.weights import pad

                assert hwv[0][0] == pad(lam, n)


def test_irrep_plucker_rejects_long_shapes():
    with pytest.raises(ValueError):
        irrep_plucker((1, 1, 1), 2)


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
    full = submodule(2, _spaces({(1, 0): [{0: 1}], (0, 1): [{1: 1}]}), *gens)
    assert full.basis_weights == std.basis_weights
    assert [m.entries() for m in full.E + full.F] == [
        m.entries() for m in std.E + std.F
    ]
    # F_0 e_1 = e_2 has weight (0, 1), which has no space
    with pytest.raises(InvariantViolation, match="leaves the submodule"):
        submodule(2, _spaces({(1, 0): [{0: 1}]}), *gens)
    # in C^2 (x) C^2, F_0 (e_1 (x) e_1) = e_2 (x) e_1 + e_1 (x) e_2, which is
    # not in the span of e_1 (x) e_2 although its weight (1, 1) has a space
    sq = tensor(std, std)
    spaces = _spaces({(2, 0): [{0: 1}], (1, 1): [{1: 1}], (0, 2): [{3: 1}]})
    with pytest.raises(InvariantViolation, match="outside the spanned subspace"):
        submodule(2, spaces, [m.apply for m in sq.E], [m.apply for m in sq.F])


def reference_wedge_replace(subset, old, new):
    """Replace one wedge factor by re-sorting and counting the factors
    strictly between old and new."""
    if new in subset:
        return None
    others = [x for x in subset if x != old]
    lo, hi = min(old, new), max(old, new)
    crossings = sum(1 for x in others if lo < x < hi)
    return (-1 if crossings % 2 else 1), tuple(sorted(others + [new]))


def test_wedge_replace_matches_the_resorting_reference():
    for size in range(1, 7):
        for k in range(1, size + 1):
            for subset in itertools.combinations(range(size), k):
                for old in subset:
                    for new in range(size + 1):
                        expected = reference_wedge_replace(subset, old, new)
                        assert wedge_replace(subset, old, new) == expected
