"""stdout pinned to fixed sha256 digests.

The first five digests were taken before EchelonBasis started storing
integral scalars as ints; the two springer digests and the crossval
--lambda 1,1,1,1,1 digest were taken before point_count_table started
reading the degree off one integer Newton table; the remaining
character, skewhowe, lattice and TSV digests were taken before the TSV
rows became a view of the JSON payload; the crossval --lambda 3,3,2 and
--lambda 3,2,2,1 digests were taken before crossval's skew Howe column
took one elimination per S_n orbit; the crossval --lambda 2,2,1,1 digest
was taken before the carried-slice certificate became one dict
comparison and crossval moved out of the CLI module.  Any change to
elimination, canonical bases, point counts, interpolation, payload
assembly or number formatting that moves a byte of these outputs fails
here.
"""

import contextlib
import hashlib
import io

import pytest

from weylworks.cli import EMIT_MATRICES_TSV_NOTE, main

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
    "character --lambda=1,0,-1 -n 3":
        "6c485c3733a99a87a3d27cab10eca588f52044b1f8a9cc86f1df3e71e9d4af1f",
    "character --lambda=1,0,-1 -n 3 --format tsv":
        "6e86b2cac8e26fc7fb9d719c4c1e54ffc0a9895996db9a5f472f169a7e823a4c",
    "decompose --module tensor(adjoint,det) -n 3 --format tsv":
        "3a42adfce3dc0163b3295e9bb0a1a3c90a15c0ee65000fe910d43a7e74aa96cf",
    "skewhowe -n 2 -m 3 -N 3":
        "a4b1ddccdc2e543a0eb3eeb5c86f64cad71a5d63ee569e852ed851fb80b8293a",
    "skewhowe -n 2 -m 3 -N 3 --format tsv":
        "4a30fee34340d9d8a737eb0fd7c5da10eb3a9679e36a06e2cb915edcc5a0ab48",
    "skewhowe --lambda 2,1,0 -n 3 -m 3 -N 3 --format tsv":
        "7131feeaef48ef29229f3de56f586ee3a87ec710eabcb314d0036d33ec5679e5",
    "lattice jordan --mu 2,1 -n 2":
        "ab45458d900a30c1b9c4ee1507aeaa78aca7de03155fe3d96c6b6e0ff6d22c2e",
    "lattice jordan --mu 2,1 -n 2 --format tsv":
        "b5fdb5cb73550faf385b8a716dc53ef08c880502b6518af8cb5b27fc9c98c5df",
    "lattice stratum --lambda 2,0 --mu 1,1 -n 2":
        "1a082a689d52258d1e9a2796fef77a3088de7d9ea73be5e0313546ac563ac5af",
    "lattice stratum --lambda 2,0 --mu 1,1 -n 2 --format tsv":
        "8df8f6ffc2378a7826dda97452a5d2f78c66a5e5073bc6f433b70d422eb812f6",
    "lattice mv-cycles --lambda 2,1,0 --mu 1,1,1 -n 3":
        "8cdd9f9ec94c422fb37c2e9726f615b2afa3f7cafa332531c9ae227242e7feef",
    "lattice mv-cycles --lambda 2,1,0 --mu 1,1,1 -n 3 --format tsv":
        "395a7a4e5e9526062622729cf1c3548575c60e697fc5200f53a48613429cf5bd",
    "crossval --lambda 2,1 -n 3 -m 3 --format tsv":
        "3e1b6d45a5ad4c870046a25f6e560a8da7297f8a26e03e6ec5c7efa8706fcb3f",
    "crossval --lambda 3,3,2 -n 5 -m 5":
        "45456a3db6b1535eb9b82924b71eea33782285a69e24c04214fb8c3ec75c12a9",
    "crossval --lambda 3,2,2,1 -n 6 -m 6":
        "185a261a9cfc21e8405c5eba35a4f693cc9c6b98fd2594437a3c0cb7b56b7af8",
    "crossval --lambda 2,2,1,1 -n 5 -m 5":
        "1e957a5798017c3f403c04873f6bca6be44c7412fc6d8ba3866db1b38f53eebb",
}
IRREP_TSV = "irrep --lambda 3,1,0 -n 3 --emit-matrices --format tsv"
# stderr of a successful run is empty, except for this one note
STDERR = {IRREP_TSV: EMIT_MATRICES_TSV_NOTE + "\n"}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv.split())
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_stdout_matches_golden_digest(argv):
    code, out, err = run(argv)
    assert code == 0, err
    assert err == STDERR.get(argv, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN[argv]


def test_tsv_irrep_notes_that_the_generators_are_json_only():
    code, out, err = run(IRREP_TSV)
    assert code == 0
    assert err.splitlines() == [EMIT_MATRICES_TSV_NOTE]
    assert err.startswith("note: ") and "JSON-only" in err
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[IRREP_TSV]
    code, out, err = run(IRREP_TSV.replace("tsv", "json"))
    assert code == 0 and err == ""
    assert "generators" in out
