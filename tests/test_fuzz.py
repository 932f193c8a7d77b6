"""Random argv through the in-process CLI: every input gets an answer, a
refusal or a usage error, and never a traceback.

Ranks and parts stay small so that each call is cheap; malformed numbers,
negative and zero ranks, huge guards, huge exterior degrees and bad
--module expressions are all drawn.  So are huge ranks (-n of every
command, -m of skewhowe and crossval), huge --mu parts and huge parts in
irrep(...): a rank, a lattice window n * D and the factor count of an
irrep are checked against WEYLWORKS_MAX_DIM before anything of that size
is built, crossval's answer-size guard refuses its huge ranks, and a
springer count whose jumps do not add up to |nu| is 0 at once.  Huge
--lambda parts are not drawn: the tableau guard refuses them, except
under a huge --size-guard, where conjugate(lambda) takes a step per box.

The JSON input of lattice jordan|stratum --subspace FILE is fuzzed the
same way: valid fixed_point(...).to_dict() payloads, and the same with a
bad entry ("1/0", floats, bools, lists), a wrong row length, a
non-integer or huge n or D, or deep nesting.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from weylworks.cli import EMIT_MATRICES_TSV_NOTE, main
from weylworks.lattice import fixed_point

MALFORMED = ["x", "", " ", "1.5", "0x10", "-", "--", "1e3", "+", "½", "2,", ",2"]

# one draw in five is malformed, so most argv reach a computation
ints = st.integers(0, 4).flatmap(
    lambda k: st.sampled_from(MALFORMED) if k == 0 else st.integers(-2, 4).map(str)
)
huge = st.sampled_from(["1000000000", "99999999999999999999", "-1000000000"])
# ranks of a command that refuses huge ones cheaply
huge_ranks = st.one_of(ints, huge)
vectors = st.integers(0, 4).flatmap(
    lambda k: st.lists(
        st.sampled_from(["1", "0", "-1", "a", "", " ", "2.0"]), max_size=4
    ).map(",".join)
    if k == 0
    else st.lists(st.integers(-1, 3), max_size=3).map(lambda v: ",".join(map(str, v)))
)
# small vectors, or up to three parts of which any may be huge
huge_parts = st.one_of(
    vectors,
    st.lists(st.one_of(st.integers(-1, 3).map(str), huge), min_size=1, max_size=3)
    .map(",".join),
)


@st.composite
def module_exprs(draw, depth=0):
    """Well-formed expressions with small parameters, or token soup."""
    if draw(st.booleans()):
        tokens = st.sampled_from(
            ["std", "det", "adjoint", "sym", "ext", "irrep", "tensor", "(", ")",
             ",", "1", "2", "-1", "x", " ", "0", "1000000000"]
        )
        return "".join(draw(st.lists(tokens, max_size=8)))
    heads = ["std", "det", "adjoint", "sym", "ext", "irrep", "standard", "bogus"]
    if depth < 2:
        heads.append("tensor")
    head = draw(st.sampled_from(heads))
    if head in ("sym", "ext"):
        return f"{head}({draw(st.one_of(st.integers(-1, 3).map(str), huge))})"
    if head == "irrep":
        part = st.one_of(st.integers(-1, 2).map(str), huge)
        return f"irrep({','.join(draw(st.lists(part, max_size=3)))})"
    if head == "tensor":
        return f"tensor({draw(module_exprs(depth + 1))},{draw(module_exprs(depth + 1))})"
    return head


COMMANDS = {
    "character": [("--lambda", vectors), ("-n", huge_ranks)],
    "decompose": [("--module", module_exprs()), ("-n", huge_ranks)],
    "irrep": [("--lambda", vectors), ("-n", huge_ranks)],
    "skewhowe": [
        ("-n", huge_ranks), ("-m", huge_ranks), ("-N", st.one_of(ints, huge))
    ],
    "lattice jordan": [("--mu", huge_parts), ("-n", huge_ranks)],
    "lattice stratum": [("--lambda", vectors), ("--mu", huge_parts), ("-n", huge_ranks)],
    "lattice mv-cycles": [
        ("--lambda", vectors), ("--mu", huge_parts), ("-n", huge_ranks)
    ],
    "springer": [("--nu", vectors), ("--mu", huge_parts), ("-n", huge_ranks)],
    "crossval": [("--lambda", vectors), ("-n", huge_ranks), ("-m", huge_ranks)],
}
EXTRAS = {
    "irrep": [("--emit-matrices", None)],
    "skewhowe": [("--lambda", vectors)],
    # 10**18 + 3 is prime; psi_13 is past the exact primality test
    "springer": [("--primes", st.one_of(vectors, st.sampled_from(
        ["2,1000000000000000003", "2,3317044064679887385961981"]
    )))],
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS) + [""]))
    argv = command.split()
    options = list(COMMANDS.get(command, [])) + EXTRAS.get(command, [])
    options.append(("--format", st.sampled_from(["json", "json", "tsv", "tsv", "xml"])))
    options.append(("--size-guard", st.one_of(ints, huge)))
    for flag, values in options:
        # required options are usually present, optional ones sometimes
        if draw(st.integers(0, 9)) < (9 if flag in dict(COMMANDS.get(command, [])) else 3):
            argv.append(flag)
            if values is not None:
                value = draw(values)
                # a leading "-" needs the --flag=value form to reach the parser
                if value.startswith("-") and flag.startswith("--"):
                    argv[-1] = f"{flag}={value}"
                else:
                    argv.append(value)
    if draw(st.integers(0, 19)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), "--bogus")
    return argv


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_answer_refusal_or_usage_error(argv, code, out, err):
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        note = argv[0] == "irrep" and "--emit-matrices" in argv and "tsv" in argv
        assert err == (EMIT_MATRICES_TSV_NOTE + "\n" if note else ""), (argv, err)
        assert out
        if "tsv" not in argv:
            assert json.loads(out)["schema_version"] == 1
        return
    assert out == "", argv
    lines = err.splitlines()
    assert len([line for line in lines if "error:" in line]) == 1, (argv, err)
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err)
    else:  # argparse may print its usage lines before the error line
        assert "error:" in lines[-1], (argv, err)


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(argvs())
def test_cli_fuzz_answers_refuses_or_reports_usage(argv):
    assert_answer_refusal_or_usage_error(argv, *run_main(argv))


NEST = "@nest@"
bad_entries = st.one_of(
    st.sampled_from(["1/0", "-3/0", "0/0", "1e999999", "1.5", "\u00bd", " 1", "2/4", ""]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-2, 2), max_size=3),
    st.integers(-10**30, 10**30),
    st.just(NEST),
)
bad_sizes = st.one_of(
    st.sampled_from([1.5, 2.0, True, False, None, "2", [], {}, 0, -1]),
    st.sampled_from([10**9, 10**20, 2**64]),
    st.integers(1, 4),
)


@st.composite
def subspace_files(draw):
    """JSON text of a subspace, and the Jordan type it must answer with when
    it is left valid: the nonzero parts of mu, sorted."""
    n = draw(st.integers(1, 3))
    mu = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    data = fixed_point(mu, n).to_dict()
    rows = data["basis"]
    mutation = draw(st.sampled_from([None, "entry", "row", "n", "D", "deep"]))
    expected = sorted((x for x in mu if x), reverse=True) if mutation is None else None
    if mutation == "entry" and rows:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(bad_entries)
    elif mutation == "row" and rows:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if draw(st.booleans()):
            row.append("0")
        else:
            row.pop()
    elif mutation in ("n", "D"):
        data[mutation] = draw(bad_sizes)
    depth = draw(st.sampled_from([1, 2, 40, 5000]))
    text = json.dumps(data).replace(json.dumps(NEST), "[" * depth + "]" * depth)
    if mutation == "deep":
        text = "[" * depth + text + "]" * depth
    return text, expected


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    subspace_files(),
    st.sampled_from([["jordan"], ["stratum", "--lambda", "1"], ["stratum", "--lambda", "2,1"]]),
    st.sampled_from([[], ["--format", "tsv"]]),
)
def test_subspace_file_fuzz_answers_or_refuses(case, operation, fmt):
    text, expected = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sub.json"
        path.write_text(text, encoding="utf-8")
        argv = ["lattice", *operation, "--subspace", str(path), *fmt]
        code, out, err = run_main(argv)
    assert_answer_refusal_or_usage_error(argv, code, out, err)
    if expected is not None:
        assert code == 0, (text, err)
        if not fmt:
            assert json.loads(out)["jordan_type"] == expected, text
