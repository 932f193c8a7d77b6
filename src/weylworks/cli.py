"""Command-line entry point.

One executable, ``weylworks``, exposing characters, explicit modules,
the exterior-power bimodule, lattice strata, finite-field point counts,
and a cross-validation driver that runs the independent constructions
on the same data and compares the numbers.

JSON is the stable machine contract (schema_version 1); TSV is a plain
human-readable view of the same payload.  Integers that may not survive
a double-precision round trip (|x| >= 2^53) are emitted as decimal
strings, as are all polynomial coefficients and matrix entries.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from math import comb

from . import characters, glmodules, lattice, skewhowe, springercount
from .crossval import cross_validate
from .errors import WeylworksError, max_dimension
from .linalg import RatMat
from .weights import as_partition, conjugate, pad

SCHEMA_VERSION = 1
EMIT_MATRICES_TSV_NOTE = (
    "note: the generator matrices are JSON-only; --format tsv prints the weight table"
)

_HONESTY_NOTES = """\
honesty notes:
  * `lattice mv-cycles` counts are derived from character data (they equal
    weight-space dimensions), not computed geometrically; no cycle geometry
    is constructed anywhere in this package.
  * matrix entries of raising operators between fixed weight spaces are
    basis-dependent and are not certified by the test suite; for the induced
    module with highest weight (2,1,0) at n=m=3 only the rank (= 1) of E_1
    from the (1,1,1) weight space to the (2,0,1) weight space is verified,
    because the rank does not depend on the basis choice.
  * point counts assume the chain varieties are paved by affine cells; the
    interpolated polynomial must have nonnegative integer coefficients and
    its leading coefficient is cross-checked against a Kostka number, so a
    failure of the assumption cannot pass silently.
"""

_EPILOG = _HONESTY_NOTES + """
environment:
  WEYLWORKS_MAX_DIM   cap on constructed module dimensions (default 1000000)

exit codes:
  0  success (and, for springer/crossval, all cross-checks agree)
  1  computation error or cross-check mismatch
  2  usage error
"""


def _jnum(x: int):
    """JSON-safe integer: plain int when exact in a double, else a string."""
    return x if -(2**53) < x < 2**53 else str(x)


def _ints_arg(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


# ---------------------------------------------------------------------------
# module expressions for `decompose`


MAX_EXPR_DEPTH = 100


def parse_module_expr(text: str, n: int):
    """Build an ExplicitModule from a tiny expression language.

    Grammar: std | det | adjoint | sym(K) | ext(K) | irrep(P1,P2,...)
    | tensor(EXPR, EXPR).  Whitespace is ignored.  The parser recurses once
    per level, so nesting deeper than MAX_EXPR_DEPTH is refused (ValueError)
    to stay far below Python's recursion limit.
    """
    pos = 0

    def error(msg: str) -> ValueError:
        return ValueError(f"bad module expression at position {pos}: {msg}")

    def skip() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def expect(ch: str) -> None:
        nonlocal pos
        skip()
        if pos >= len(text) or text[pos] != ch:
            raise error(f"expected {ch!r}")
        pos += 1

    def name() -> str:
        nonlocal pos
        skip()
        start = pos
        while pos < len(text) and text[pos].isalpha():
            pos += 1
        if start == pos:
            raise error("expected a constructor name")
        return text[start:pos]

    def integer() -> int:
        nonlocal pos
        skip()
        start = pos
        if pos < len(text) and text[pos] == "-":
            pos += 1
        while pos < len(text) and text[pos].isdigit():
            pos += 1
        if start == pos or text[start:pos] == "-":
            raise error("expected an integer")
        return int(text[start:pos])

    def int_args() -> list[int]:
        expect("(")
        vals = [integer()]
        skip()
        while pos < len(text) and text[pos] == ",":
            expect(",")
            vals.append(integer())
            skip()
        expect(")")
        return vals

    def expr(depth: int):
        if depth > MAX_EXPR_DEPTH:
            raise error(f"expression nested deeper than {MAX_EXPR_DEPTH} levels")
        head = name().lower()
        if head in ("std", "standard"):
            return glmodules.standard_module(n)
        if head == "det":
            return glmodules.ext_power(n, n)
        if head == "adjoint":
            return glmodules.adjoint_module(n)
        if head == "sym":
            (k,) = int_args()
            return glmodules.sym_power(k, n)
        if head == "ext":
            (k,) = int_args()
            return glmodules.ext_power(k, n)
        if head == "irrep":
            return glmodules.irrep_plucker(int_args(), n)
        if head == "tensor":
            expect("(")
            left = expr(depth + 1)
            expect(",")
            right = expr(depth + 1)
            expect(")")
            return glmodules.tensor(left, right)
        raise error(f"unknown constructor {head!r}")

    module = expr(0)
    skip()
    if pos != len(text):
        raise error("trailing input")
    return module


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (payload body, TSV rows, exit code).
# run puts the schema_version/command header in front of the body.  The
# TSV rows are read off the same body by _tsv (springer lays out its own
# q/count rows, cell by cell with _cell), so the two formats cannot drift.


def _cell(value) -> str:
    """One TSV cell: a list is comma-joined, a bool is true/false."""
    if isinstance(value, list):
        return ",".join(str(x) for x in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _tsv(items, columns) -> list[list[str]]:
    """A header row, then one row per payload item.

    A column is an item key, or a (label, key) pair when the header label
    differs from the key.
    """
    columns = [(c, c) if isinstance(c, str) else c for c in columns]
    rows = [[label for label, _ in columns]]
    rows += [[_cell(item[key]) for _, key in columns] for item in items]
    return rows


def _weight_table(mod) -> list[tuple[tuple[int, ...], int]]:
    return [(w, len(idxs)) for w, idxs in glmodules.weight_decompose(mod).items()]


def _weight_list(table):
    """(weight, multiplicity) pairs as payload entries and their TSV rows."""
    entries = [{"mu": list(mu), "multiplicity": _jnum(mult)} for mu, mult in table]
    return entries, _tsv(entries, ("mu", "multiplicity"))


def _matrix_json(mat: RatMat) -> dict:
    return {
        "rows": mat.nrows,
        "cols": mat.ncols,
        "entries": [[r, c, str(Fraction(v))] for r, c, v in mat.entries()],
    }


def _run_character(args: argparse.Namespace):
    table = characters.character_table(args.lam, args.n, size_guard=args.size_guard)
    entries, rows = _weight_list(table.sorted_entries())
    body = {
        "lambda": list(args.lam),
        "n": args.n,
        "dim": _jnum(table.dim()),
        "entries": entries,
    }
    return body, rows, 0


def _run_decompose(args: argparse.Namespace):
    module = parse_module_expr(args.module, args.n)
    result = glmodules.decompose(module, size_guard=args.size_guard)
    mults = [
        {"lambda": list(w), "multiplicity": _jnum(m)}
        for w, m in sorted(result.multiplicities.items(), reverse=True)
    ]
    body = {
        "module": args.module,
        "n": args.n,
        "dim": _jnum(module.dim),
        "multiplicities": mults,
    }
    return body, _tsv(mults, ("lambda", "multiplicity")), 0


def _run_irrep(args: argparse.Namespace):
    module = glmodules.irrep_plucker(args.lam, args.n)
    weights, rows = _weight_list(_weight_table(module))
    body = {
        "lambda": list(args.lam),
        "n": args.n,
        "dim": _jnum(module.dim),
        "weights": weights,
    }
    if args.emit_matrices:
        body["generators"] = {
            "E": [_matrix_json(mat) for mat in module.E],
            "F": [_matrix_json(mat) for mat in module.F],
        }
        if args.format == "tsv":
            print(EMIT_MATRICES_TSV_NOTE, file=sys.stderr)
    return body, rows, 0


def _run_skewhowe(args: argparse.Namespace):
    if args.lam is None:
        guard = args.size_guard
        pairs = [
            {
                "gln": list(wn),
                "glm": list(wm),
                "dim_gln": _jnum(characters.dim_irrep(wn, args.n, size_guard=guard)),
                "dim_glm": _jnum(characters.dim_irrep(wm, args.m, size_guard=guard)),
            }
            for wn, wm in skewhowe.decompose_howe(
                args.n, args.m, args.N, size_guard=guard
            )
        ]
        body = {
            "n": args.n,
            "m": args.m,
            "N": args.N,
            "dim": _jnum(comb(args.n * args.m, args.N)),
            "pairs": pairs,
        }
        return body, _tsv(pairs, ("gln", "glm", "dim_gln", "dim_glm")), 0
    bim = skewhowe.build_bimodule(args.n, args.m, args.N)
    module = skewhowe.induced_gln_module(bim, args.lam)
    weights, rows = _weight_list(_weight_table(module))
    body = {
        "n": args.n,
        "m": args.m,
        "N": args.N,
        "lambda": list(args.lam),
        "dim": _jnum(module.dim),
        "weights": weights,
    }
    return body, rows, 0


def _load_subspace(args: argparse.Namespace) -> lattice.LatticeSubspace:
    if (args.subspace is None) == (args.mu is None):
        raise ValueError("give exactly one of --mu and --subspace")
    if args.subspace is not None:
        with open(args.subspace, encoding="utf-8") as handle:
            return lattice.LatticeSubspace.from_dict(json.load(handle))
    n = args.n
    if n is None:
        n = len(args.mu)
    return lattice.fixed_point(args.mu, n)


def _run_lattice(args: argparse.Namespace):
    if args.operation == "mv-cycles":
        count = lattice.mv_cycle_count(
            args.lam, args.mu, args.n, size_guard=args.size_guard
        )
        body = {
            "lambda": list(args.lam),
            "mu": list(args.mu),
            "n": args.n,
            "count": _jnum(count),
            "derivation": "character data (weight multiplicity), not geometry",
        }
        return body, _tsv([body], ("lambda", "mu", "count")), 0
    sub = _load_subspace(args)
    jt = lattice.jordan_type(sub)
    if args.operation == "jordan":
        body = {
            "n": sub.n,
            "D": sub.D,
            "dim": sub.dim,
            "jordan_type": list(jt),
        }
        return body, _tsv([body], ("n", "D", "dim", "jordan_type")), 0
    location = lattice.stratum_membership(sub, args.lam)
    body = {
        "lambda": list(as_partition(args.lam)),
        "jordan_type": list(jt),
        "location": location.value,
    }
    return body, _tsv([body], ("lambda", "jordan_type", "location")), 0


def _run_springer(args: argparse.Namespace):
    nu = as_partition(args.nu)
    # The Kostka referee runs first, so that --size-guard refuses before
    # any point is counted; point_count_table then validates mu against n.
    # conjugate(nu) takes one step per box of the longest part, so it runs
    # only when a tableau can exist, and only after the guard on |nu|.
    content = pad(args.mu, max(args.n, len(args.mu)))
    expected = 0
    if min(content, default=0) >= 0 and sum(nu) == sum(content):
        characters.check_size(nu, args.size_guard)
        expected = characters.kostka(conjugate(nu), content, size_guard=args.size_guard)
    table = springercount.point_count_table(nu, args.mu, args.n, primes=args.primes)
    lead = table.leading_coefficient
    body = {
        "nu": list(table.nu),
        "mu": list(table.mu),
        "n": args.n,
        "counts": {str(q): _jnum(c) for q, c in table.evaluations},
        "poly": [str(c) for c in table.coefficients],
        "leading": _jnum(lead),
        "kostka": _jnum(expected),
        "match": lead == expected,
    }
    rows = [["q", "count"]]
    rows += [[q, _cell(c)] for q, c in body["counts"].items()]
    rows.append(["poly", " ".join(body["poly"])])
    rows += [[key, _cell(body[key])] for key in ("leading", "kostka", "match")]
    return body, rows, 0 if body["match"] else 1


def _run_crossval(args: argparse.Namespace):
    report = cross_validate(args.lam, args.n, args.m, size_guard=args.size_guard)
    rows = [
        {
            "mu": list(row.mu),
            "kostka": _jnum(row.kostka),
            "skewhowe": _jnum(row.skewhowe),
            "springer": _jnum(row.springer),
            "lattice_mv": _jnum(row.lattice_mv),
            "match": row.match,
        }
        for row in report.rows
    ]
    body = {
        "lambda": list(report.lam),
        "n": args.n,
        "m": args.m,
        "rows": rows,
        "match": report.match,
    }
    columns = (
        "mu", "kostka", "skewhowe", "springer", ("lattice-mv", "lattice_mv"), "match"
    )
    return body, _tsv(rows, columns), 0 if report.match else 1


_HANDLERS = {
    "character": _run_character,
    "decompose": _run_decompose,
    "irrep": _run_irrep,
    "skewhowe": _run_skewhowe,
    "lattice": _run_lattice,
    "springer": _run_springer,
    "crossval": _run_crossval,
}


# ---------------------------------------------------------------------------
# argument parsing


def _add_format(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format",
        choices=("json", "tsv"),
        default="json",
        help="output format (json is the machine contract, tsv is for reading)",
    )


def _add_size_guard(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--size-guard",
        type=int,
        default=characters.DEFAULT_SIZE_GUARD,
        metavar="SIZE",
        help="partition-size guard on tableau counts (default: %(default)s boxes)",
    )


@functools.cache  # parsing leaves a parser unchanged: one tree per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylworks",
        description=(
            "Exact computations with irreducible GL_n representations: "
            "character tables, explicit modules with raising/lowering "
            "operators, the exterior-power bimodule, lattice strata, and "
            "finite-field point counts, all cross-validated against each "
            "other."
        ),
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", metavar="command")

    p = commands.add_parser(
        "character", help="weight multiplicities of one irreducible"
    )
    p.add_argument("--lambda", dest="lam", type=_ints_arg, required=True,
                   help="highest weight, comma-separated (use --lambda=… if negative)")
    p.add_argument("-n", "--n", dest="n", type=int, required=True)
    _add_format(p)
    _add_size_guard(p)

    p = commands.add_parser(
        "decompose", help="decompose a constructed module into irreducibles"
    )
    p.add_argument("--module", required=True,
                   help="expression: std, det, adjoint, sym(K), ext(K), "
                        "irrep(...), tensor(A,B)")
    p.add_argument("-n", "--n", dest="n", type=int, required=True)
    _add_format(p)
    _add_size_guard(p)

    p = commands.add_parser(
        "irrep", help="build one irreducible inside a tensor product of "
                      "exterior powers"
    )
    p.add_argument("--lambda", dest="lam", type=_ints_arg, required=True)
    p.add_argument("-n", "--n", dest="n", type=int, required=True)
    p.add_argument("--emit-matrices", action="store_true",
                   help="include raising/lowering matrices in the JSON output")
    _add_format(p)

    p = commands.add_parser(
        "skewhowe", help="decompose the exterior power of C^n (x) C^m, or "
                         "build the induced module for one factor"
    )
    p.add_argument("-n", "--n", dest="n", type=int, required=True)
    p.add_argument("-m", "--m", dest="m", type=int, required=True)
    p.add_argument("-N", "--N", dest="N", type=int, required=True,
                   help="exterior power degree")
    p.add_argument("--lambda", dest="lam", type=_ints_arg, default=None,
                   help="emit the induced module for this partition instead")
    _add_format(p)
    _add_size_guard(p)

    p = commands.add_parser("lattice", help="shift-stable subspace queries")
    lattice_ops = p.add_subparsers(dest="operation", metavar="operation")

    q = lattice_ops.add_parser("jordan", help="Jordan type of the shift operator")
    q.add_argument("--mu", type=_ints_arg, default=None,
                   help="build the monomial subspace for this vector")
    q.add_argument("-n", "--n", dest="n", type=int, default=None)
    q.add_argument("--subspace", default=None, metavar="FILE",
                   help="JSON file holding a subspace instead of --mu")
    _add_format(q)

    q = lattice_ops.add_parser("stratum", help="locate a subspace relative to "
                                               "a stratum closure")
    q.add_argument("--lambda", dest="lam", type=_ints_arg, required=True)
    q.add_argument("--mu", type=_ints_arg, default=None)
    q.add_argument("-n", "--n", dest="n", type=int, default=None)
    q.add_argument("--subspace", default=None, metavar="FILE")
    _add_format(q)

    q = lattice_ops.add_parser(
        "mv-cycles",
        help="cycle count of a given weight (derived from character data, "
             "not computed geometrically)",
    )
    q.add_argument("--lambda", dest="lam", type=_ints_arg, required=True)
    q.add_argument("--mu", type=_ints_arg, required=True)
    q.add_argument("-n", "--n", dest="n", type=int, required=True)
    _add_format(q)
    _add_size_guard(q)

    p = commands.add_parser(
        "springer", help="finite-field point counts and their polynomial"
    )
    p.add_argument("--nu", type=_ints_arg, required=True, help="Jordan type")
    p.add_argument("--mu", type=_ints_arg, required=True, help="dimension jumps")
    p.add_argument("-n", "--n", dest="n", type=int, required=True)
    p.add_argument("--primes", type=_ints_arg, default=None,
                   help="primes to evaluate at (default: smallest primes)")
    _add_format(p)
    _add_size_guard(p)

    p = commands.add_parser(
        "crossval", help="run all constructions on one partition and compare"
    )
    p.add_argument("--lambda", dest="lam", type=_ints_arg, required=True)
    p.add_argument("-n", "--n", dest="n", type=int, required=True)
    p.add_argument("-m", "--m", dest="m", type=int, required=True)
    _add_format(p)
    _add_size_guard(p)

    return parser


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command line, writing the result to stdout."""
    body, rows, code = _HANDLERS[args.command](args)
    if args.format == "json":
        command = args.command
        if command == "lattice":
            command += " " + args.operation
        payload = {"schema_version": SCHEMA_VERSION, "command": command, **body}
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for row in rows:
            sys.stdout.write("\t".join(row) + "\n")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse reads --option=-- as [] and never calls the option's type
    if [] in vars(args).values():
        parser.error("an option needs a value, got '--'")
    if args.command is None:
        parser.print_usage(sys.stderr)
        print("error: a command is required", file=sys.stderr)
        return 2
    if args.command == "lattice" and getattr(args, "operation", None) is None:
        print(
            "error: lattice needs an operation: jordan | stratum | mv-cycles",
            file=sys.stderr,
        )
        return 2
    try:
        # every command refuses a malformed WEYLWORKS_MAX_DIM, not only
        # those that happen to build a module
        max_dimension()
        return run(args)
    except (WeylworksError, ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input too large: maximum recursion depth exceeded", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
