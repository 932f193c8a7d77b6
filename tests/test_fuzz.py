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
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from weylworks.cli import EMIT_MATRICES_TSV_NOTE, main

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


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(argvs())
def test_cli_fuzz_answers_refuses_or_reports_usage(argv):
    code, out, err = run_main(argv)
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
