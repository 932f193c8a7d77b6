"""The routes to one weight multiplicity agree on random small inputs.

For a partition lam with |lam| <= 5 and every composition mu, the Kostka
number K(conjugate(lam), mu) is compared with the hom-space dimension in
Lambda^N(C^n (x) C^m) and with the leading coefficient of the F_q point
count for Jordan type lam.  The weight tables of both constructions of the
irreducible with highest weight conjugate(lam), irrep_plucker and
induced_gln_module, must equal the character table.  The lattice_mv
count is derived from the character and is not evidence here.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from weylworks.characters import character_table, kostka
from weylworks.glmodules import irrep_plucker, weight_decompose
from weylworks.skewhowe import build_bimodule, hom_space, induced_gln_module
from weylworks.springercount import point_count_table
from weylworks.weights import compositions, conjugate, pad, partitions


@st.composite
def shapes(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    total = draw(st.integers(0, min(5, n * m)))
    lam = draw(st.sampled_from(list(partitions(total, max_parts=m, max_part=n))))
    return lam, n, m


@settings(max_examples=100, deadline=None)
@given(shapes())
def test_routes_agree(case):
    lam, n, m = case
    total = sum(lam)
    lv = conjugate(lam)
    bim = build_bimodule(n, m, total)
    table = character_table(pad(lv, n), n).entries
    for mu in compositions(total, n):
        expected = kostka(lv, mu)
        assert hom_space(bim, lam, mu).dim == expected, mu
        assert point_count_table(lam, mu, n).leading_coefficient == expected, mu
        assert table.get(mu, 0) == expected, mu
    for mod in (irrep_plucker(lv, n), induced_gln_module(bim, lam)):
        weights = {w: len(idxs) for w, idxs in weight_decompose(mod).items()}
        assert weights == table
