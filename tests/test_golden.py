"""stdout pinned to fixed sha256 digests.

The first five digests were taken before EchelonBasis started storing
integral scalars as ints; the two springer digests and the crossval
--lambda 1,1,1,1,1 digest were taken before point_count_table started
reading the degree off one integer Newton table.  Any change to
elimination, canonical bases, point counts, interpolation or number
formatting that moves a byte of these outputs fails here.
"""

import contextlib
import hashlib
import io

import pytest

from weylworks.cli import main

GOLDEN = {
    "irrep --lambda 4,3,2,1,0 -n 5 --emit-matrices":
        "a58c07605506cd469b7c616b1e43df67caf1d1a0ebc46e5afdd2a33b78b2f522",
    "irrep --lambda 3,1,0 -n 3 --emit-matrices --format tsv":
        "6fb15053a5b1d76e055cc459c8f44bf5672ee0a2e0bdd1bc2d88ed08e22d0af1",
    "skewhowe --lambda 2,1,1 -n 4 -m 3 -N 4":
        "899d23ff718b93b2a55e0ca44d53b25760924677fafbc09276aa3b10bfc83047",
    "crossval --lambda 2,1 -n 3 -m 3":
        "87c84cc544487137d629b31af7eec25bb2bad186cf3566bb57e620748805eae1",
    "decompose --module tensor(adjoint,adjoint) -n 6":
        "421fbfa986d4dc30fdecefb3a7e76bf9c2325364b5cc38e54c9c7f4524fdfa13",
    "springer --nu 6,3,2,1 --mu 1,1,1,1,1,1,1,1,1,1,1,1 -n 12":
        "86741846288e1e8a557705afd86a5e056cf1bc1b5781797ba4c16f074e61f5f4",
    "springer --nu 2,2,1 --mu 1,1,1,1,1 -n 5 --primes 2,3,5,7,11,13,17 --format tsv":
        "d5fc3c323b90cd42e8bdcbba79f17a4275d62f7c2844d01d050feb03201b2b7f",
    "crossval --lambda 1,1,1,1,1 -n 5 -m 5":
        "bb3a1c7884a0e7d9ac8b26d350e95f1bc97b968351458e5fed9818ee7027f50a",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_stdout_matches_golden_digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    assert code == 0, err.getvalue()
    assert err.getvalue() == ""
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == GOLDEN[argv]
