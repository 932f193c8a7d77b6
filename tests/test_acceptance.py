"""Acceptance suite: nine checks, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Checks with a pinned wall-clock budget fail if they run over it; the
others print their elapsed time for the record.
"""

import contextlib
import io
import itertools
import json
import math
import time
from pathlib import Path

from weylworks.characters import character, character_table, kostka
from weylworks.cli import cross_validate, main
from weylworks.errors import WeylworksError
from weylworks.glmodules import (
    adjoint_module,
    decompose,
    ext_power,
    irrep_plucker,
    standard_module,
    sym_power,
    tensor,
    verify_chevalley_relations,
)
from weylworks.lattice import StratumLocation, fixed_point, jordan_type, stratum_membership
from weylworks.linalg import EchelonBasis
from weylworks.skewhowe import (
    build_bimodule,
    decompose_howe,
    hom_space,
    induced_gln_module,
    verify_commuting_actions,
)
from weylworks.springercount import (
    count_fiber_points,
    gaussian_binomial,
    point_count_table,
)
from weylworks.weights import compositions, conjugate, dominance_leq, pad, partitions

REPO_ROOT = Path(__file__).resolve().parent.parent


@contextlib.contextmanager
def criterion(number, description, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    over = budget is not None and elapsed >= budget
    label = f"{elapsed:.2f}s" + (f", budget {budget:.0f}s" if budget else "")
    print(f"{'FAIL' if over else 'PASS'} criterion {number}: {description} ({label})")
    assert not over, f"criterion {number} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_character_fidelity():
    with criterion(1, "character tables pinned to the worked examples", budget=1.0):
        table = character_table((3, 0), 2)
        assert table.entries == {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1}
        assert character((1, 0, -1), (0, 0, 0)) == 2
        adjoint = character_table((1, 0, -1), 3)
        assert adjoint.entries == {
            (1, 0, -1): 1,
            (1, -1, 0): 1,
            (0, 1, -1): 1,
            (0, -1, 1): 1,
            (-1, 1, 0): 1,
            (-1, 0, 1): 1,
            (0, 0, 0): 2,
        }


def test_criterion_2_module_relations():
    with criterion(2, "generator relations exact on every constructor", budget=30.0):
        for n in range(1, 5):
            mods = [standard_module(n), adjoint_module(n) if n >= 2 else None]
            mods += [sym_power(k, n) for k in range(5)]
            mods += [ext_power(k, n) for k in range(n + 1)]
            mods = [m for m in mods if m is not None]
            for mod in mods:
                verify_chevalley_relations(mod)
            for a, b in itertools.combinations_with_replacement(mods, 2):
                if a.dim * b.dim <= 600:
                    verify_chevalley_relations(tensor(a, b))
            for total in range(7):
                for lam in partitions(total, max_parts=n):
                    verify_chevalley_relations(irrep_plucker(lam, n))


def test_criterion_3_decomposition():
    with criterion(3, "tensor decompositions pinned to the worked examples"):
        std = standard_module(2)
        assert decompose(tensor(std, std)).multiplicities == {(2, 0): 1, (1, 1): 1}
        twisted = tensor(adjoint_module(3), ext_power(3, 3))
        assert decompose(twisted).multiplicities == {(2, 1, 0): 1}


def test_criterion_4_skew_howe():
    with criterion(4, "Howe pairs, dimension identity, commuting actions", budget=60.0):
        pairs = decompose_howe(2, 3, 3)
        assert pairs == [((2, 1), (2, 1, 0)), ((3, 0), (1, 1, 1))]
        assert 2 * 8 + 4 * 1 == 20 == math.comb(6, 3)
        for n in (1, 2, 3):
            for m in (1, 2, 3):
                for N in range(min(n * m, 4) + 1):
                    verify_commuting_actions(build_bimodule(n, m, N))


def test_criterion_5_hom_dimensions():
    with criterion(5, "Hom-space dimensions equal Kostka numbers to N = 5"):
        bim = build_bimodule(3, 3, 3)
        assert hom_space(bim, (2, 1, 0), (1, 1, 1)).dim == 2
        for N in range(1, 6):
            bim = build_bimodule(N, N, N)
            for lam in partitions(N):
                lv = conjugate(lam)
                for mu in compositions(N, N):
                    assert hom_space(bim, lam, mu).dim == kostka(lv, mu), (lam, mu)


def test_criterion_6_springer_point_counts():
    with criterion(6, "point counts, interpolation, Kostka leading terms", budget=300.0):
        assert count_fiber_points(2, (2, 1), (1, 1, 1)) == 5
        assert count_fiber_points(3, (2, 1), (1, 1, 1)) == 7
        assert count_fiber_points(5, (2, 1), (1, 1, 1)) == 11
        table = point_count_table((2, 1), (1, 1, 1), 3, primes=[2, 3, 5])
        assert table.coefficients == (1, 2)
        assert table.leading_coefficient == 2 == kostka((2, 1), (1, 1, 1))
        for total in range(1, 6):
            for nu in partitions(total):
                one_point = point_count_table(nu, conjugate(nu), len(conjugate(nu)))
                assert one_point.coefficients == (1,), nu
        for total in range(1, 6):
            for a in range(total + 1):
                for q in (2, 3, 5):
                    count = count_fiber_points(q, (1,) * total, (a, total - a))
                    assert count == gaussian_binomial(total, a, q)


def test_criterion_7_lattice_model():
    with criterion(7, "Jordan types of fixed points and closure order"):
        for n in (1, 2, 3):
            for total in range(7):
                for lam in partitions(total, max_parts=n):
                    padded = pad(lam, n)
                    for w in set(itertools.permutations(padded)):
                        assert jordan_type(fixed_point(w, n)) == lam
        # membership agrees with the dominance order on closures
        for total in range(7):
            shapes = list(partitions(total, max_parts=3))
            for kappa in shapes:
                sub = fixed_point(pad(kappa, 3), 3)
                for lam in shapes:
                    got = stratum_membership(sub, lam)
                    if kappa == lam:
                        assert got == StratumLocation.IN_STRATUM
                    elif dominance_leq(pad(kappa, 3), pad(lam, 3)):
                        assert got == StratumLocation.IN_CLOSURE_ONLY
                    else:
                        assert got == StratumLocation.OUTSIDE


def test_criterion_8_grand_cross_validation():
    with criterion(8, "three constructions agree on every weight", budget=600.0):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["crossval", "--lambda", "2,1,0", "-n", "3", "-m", "3"])
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["match"] is True
        assert all(
            row["kostka"] == row["skewhowe"] == row["springer"] == row["lattice_mv"]
            for row in payload["rows"]
        )
        for total in range(1, 5):
            for lam in partitions(total):
                if lam[0] > 3 or len(lam) > 3:
                    # does not embed in the N-th wedge of C^3 (x) C^3:
                    # must be refused, not computed
                    try:
                        cross_validate(lam, 3, 3)
                    except (WeylworksError, ValueError):
                        pass
                    else:
                        raise AssertionError(f"{lam} should have been rejected")
                    continue
                report = cross_validate(lam, 3, 3)
                assert report.match, lam
                for row in report.rows:
                    assert (
                        row.kostka == row.skewhowe == row.springer == row.lattice_mv
                    ), (lam, row.mu)


def test_criterion_9_out_of_scope_honesty():
    with criterion(9, "documentation admits what is derived, not computed"):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "derived from character data" in readme
        assert "basis-dependent" in readme
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                main(["--help"])
            except SystemExit:
                pass
        helptext = out.getvalue()
        assert "derived from character data" in helptext
        assert "basis-dependent" in helptext
        assert "rank (= 1)" in helptext
        # the one basis-independent number in that story, recomputed live:
        # E_1 on the induced module of (2,1,0) maps the 2-dimensional
        # (1,1,1) weight space onto the 1-dimensional (2,0,1) space
        mod = induced_gln_module(build_bimodule(3, 3, 3), (2, 1, 0))
        src = [i for i, w in enumerate(mod.basis_weights) if w == (1, 1, 1)]
        dst = [i for i, w in enumerate(mod.basis_weights) if w == (2, 0, 1)]
        assert len(src) == 2 and len(dst) == 1
        eb = EchelonBasis()
        for s in src:
            col = mod.E[0].column(s)
            eb.insert({j: col[d] for j, d in enumerate(dst) if d in col})
        assert len(eb.rows) == 1
