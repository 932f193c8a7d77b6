import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from weylworks.cli import (
    MAX_EXPR_DEPTH,
    _jnum,
    build_parser,
    cross_validate,
    main,
    parse_module_expr,
)
from weylworks.errors import InvariantViolation, ResourceLimitError
from weylworks.linalg import RatMat


def run_cli(args):
    """Invoke main() and capture (exit_code, stdout, stderr)."""
    import contextlib

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def payload_of(args):
    code, out, err = run_cli(args)
    assert code == 0, err
    return json.loads(out)


def test_runconfig_rejects_bad_format():
    with pytest.raises(SystemExit) as exc:
        main(["character", "--lambda", "2,1", "-n", "2", "--format", "xml"])
    assert exc.value.code == 2


def test_config_from_args_matches_manual_construction():
    args = build_parser().parse_args(
        ["springer", "--nu", "2,1", "--mu", "1,1,1", "-n", "3", "--primes", "2,3,5"]
    )
    assert args.command == "springer"
    assert args.nu == (2, 1)
    assert args.mu == (1, 1, 1)
    assert args.primes == (2, 3, 5)


def test_output_is_byte_identical_across_runs():
    argv = ["crossval", "--lambda", "2,1,0", "-n", "3", "-m", "3"]
    outs = []
    for _ in range(2):
        code, out, _ = run_cli(argv)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_one_parser_serves_every_command_in_a_process():
    argvs = [
        ["irrep", "--lambda", "2,1,0", "-n", "3", "--emit-matrices"],
        ["irrep", "--lambda", "2,1,0", "-n", "3"],
        ["springer", "--nu", "2,1", "--mu", "1,1,1", "-n", "3"],
    ]
    in_turn = [run_cli(argv) for argv in argvs]
    alone = []
    for argv in argvs:
        build_parser.cache_clear()
        alone.append(run_cli(argv))
    assert in_turn == alone
    assert [code for code, _, _ in in_turn] == [0, 0, 0]
    emitted, plain = (json.loads(out) for _, out, _ in in_turn[:2])
    assert "generators" in emitted and "generators" not in plain


def test_character_json_schema():
    payload = payload_of(["character", "--lambda", "3,0", "-n", "2"])
    assert payload["schema_version"] == 1
    assert payload["command"] == "character"
    assert payload["lambda"] == [3, 0]
    assert payload["dim"] == 4
    assert len(payload["entries"]) == 4
    assert payload["entries"][0] == {"mu": [3, 0], "multiplicity": 1}


def test_character_tsv_output():
    code, out, _ = run_cli(["character", "--lambda", "3,0", "-n", "2", "--format", "tsv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "mu\tmultiplicity"
    assert len(lines) == 5


def test_character_rejects_non_dominant():
    code, out, err = run_cli(["character", "--lambda", "0,1", "-n", "2"])
    assert code == 1
    assert out == ""
    assert "error:" in err


def test_negative_lambda_entries_need_equals_syntax():
    payload = payload_of(["character", "--lambda=1,0,-1", "-n", "3"])
    assert payload["dim"] == 8


def test_decompose_cli():
    payload = payload_of(["decompose", "--module", "tensor(std,std)", "-n", "2"])
    assert payload["multiplicities"] == [
        {"lambda": [2, 0], "multiplicity": 1},
        {"lambda": [1, 1], "multiplicity": 1},
    ]
    payload = payload_of(["decompose", "--module", "tensor(adjoint,det)", "-n", "3"])
    assert payload["multiplicities"] == [{"lambda": [2, 1, 0], "multiplicity": 1}]


def test_parse_module_expr():
    assert parse_module_expr("std", 3).dim == 3
    assert parse_module_expr("det", 3).dim == 1
    assert parse_module_expr("sym(2)", 3).dim == 6
    assert parse_module_expr("ext(2)", 3).dim == 3
    assert parse_module_expr("adjoint", 3).dim == 8
    assert parse_module_expr("irrep(2,1)", 3).dim == 8
    assert parse_module_expr("tensor(std, ext(2))", 3).dim == 9
    assert parse_module_expr("tensor(tensor(std,std),std)", 2).dim == 8
    nested = "tensor(" * MAX_EXPR_DEPTH + "std" + ",std)" * MAX_EXPR_DEPTH
    assert parse_module_expr(nested, 1).dim == 1
    too_deep = "tensor(" + nested + ",std)"
    for bad in ["foo", "sym", "sym(2", "tensor(std)", "std junk", "irrep()", too_deep]:
        with pytest.raises(ValueError):
            parse_module_expr(bad, 3)


def test_irrep_emit_matrices():
    payload = payload_of(
        ["irrep", "--lambda", "2,1", "-n", "2", "--emit-matrices"]
    )
    assert payload["dim"] == 2
    gens = payload["generators"]
    assert set(gens) == {"E", "F"}
    e1 = gens["E"][0]
    assert set(e1) == {"rows", "cols", "entries"}
    assert e1["rows"] == e1["cols"] == 2
    for r, c, val in e1["entries"]:
        assert isinstance(val, str)  # exact rationals travel as strings
    entries = [(r, c) for r, c, _ in e1["entries"]]
    assert entries == sorted(entries)


def test_skewhowe_pairs_cli():
    payload = payload_of(["skewhowe", "-n", "2", "-m", "3", "-N", "3"])
    assert payload["dim"] == 20
    assert payload["pairs"] == [
        {"gln": [2, 1], "glm": [2, 1, 0], "dim_gln": 2, "dim_glm": 8},
        {"gln": [3, 0], "glm": [1, 1, 1], "dim_gln": 4, "dim_glm": 1},
    ]


def test_skewhowe_pairs_refuse_a_second_joint_highest_weight_line(monkeypatch):
    from weylworks import skewhowe

    monkeypatch.setattr(skewhowe, "joint_highest_weight_dim", lambda *args: 2)
    code, out, err = run_cli(["skewhowe", "-n", "2", "-m", "3", "-N", "3"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "found 2" in err


def test_skewhowe_induced_module_cli():
    payload = payload_of(
        ["skewhowe", "-n", "3", "-m", "3", "-N", "3", "--lambda", "2,1,0"]
    )
    assert payload["dim"] == 8
    weights = {tuple(e["mu"]): e["multiplicity"] for e in payload["weights"]}
    assert weights[(1, 1, 1)] == 2


def test_skewhowe_induced_module_matches_irrep_at_rank_five():
    # conjugate((2, 2, 1, 1)) = (4, 2), past test_routes' n, m <= 4, |lam| <= 5
    induced = payload_of(
        ["skewhowe", "-n", "5", "-m", "5", "-N", "6", "--lambda", "2,2,1,1"]
    )
    plucker = payload_of(["irrep", "--lambda", "4,2,0,0,0", "-n", "5"])
    assert induced["dim"] == plucker["dim"] == 420
    assert induced["weights"] == plucker["weights"]


def test_springer_cli_matches_documented_shape():
    payload = payload_of(
        ["springer", "--nu", "2,1", "--mu", "1,1,1", "-n", "3", "--primes", "2,3,5"]
    )
    assert payload["counts"] == {"2": 5, "3": 7, "5": 11}
    assert payload["poly"] == ["1", "2"]
    assert payload["leading"] == 2
    assert payload["kostka"] == 2
    assert payload["match"] is True


def one_error_line(args, start):
    """Run the CLI, expecting a refusal: exit 1, no stdout, and one
    stderr line beginning with start."""
    code, out, err = run_cli(args)
    assert (code, out) == (1, ""), err
    assert err.startswith(start) and err.count("\n") == 1, err


def test_springer_refuses_a_negative_n():
    one_error_line(
        ["springer", "--nu=", "--mu=", "-n", "-1"], "error: n must be nonnegative, got -1\n"
    )


NEGATIVE_RANK_ARGV = [
    ["irrep", "--lambda=", "-n", "-1"],
    ["character", "--lambda=", "-n", "-1"],
    ["lattice", "mv-cycles", "--lambda=", "--mu=", "-n", "-1"],
    ["lattice", "jordan", "--mu=", "-n", "-1"],
]


@pytest.mark.parametrize("argv", NEGATIVE_RANK_ARGV, ids=" ".join)
def test_negative_rank_is_named_by_its_sign(argv):
    one_error_line(argv, "error: n must be nonnegative, got -1\n")


# one message per kind of rank: a gl(n) rank, or the pair (n, m)
ZERO_RANK_ARGV = [
    (["irrep", "--lambda=", "-n", "0"], "rank"),
    (["decompose", "--module", "std", "-n", "0"], "rank"),
    (["decompose", "--module", "sym(1)", "-n", "0"], "rank"),
    (["decompose", "--module", "ext(1)", "-n", "0"], "rank"),
    (["character", "--lambda=", "-n", "0"], "rank"),
    (["lattice", "mv-cycles", "--lambda=", "--mu=", "-n", "0"], "rank"),
    (["lattice", "mv-cycles", "--lambda=1", "--mu=1", "-n", "0"], "rank"),
    (["skewhowe", "-n", "0", "-m", "1", "-N", "0"], "both ranks"),
    (["skewhowe", "-n", "1", "-m", "0", "-N", "0"], "both ranks"),
    (["crossval", "--lambda=1", "-n", "1", "-m", "0"], "both ranks"),
]


@pytest.mark.parametrize(
    "argv,rank", ZERO_RANK_ARGV, ids=[" ".join(argv) for argv, _ in ZERO_RANK_ARGV]
)
def test_zero_rank_is_refused_as_decompose_refuses_it(argv, rank):
    one_error_line(argv, f"error: {rank} must be at least 1\n")


def test_springer_refuses_primes_too_few_for_the_degree():
    # the count 1 + 2q needs three primes
    one_error_line(
        ["springer", "--nu", "2,1", "--mu", "1,1,1", "-n", "3", "--primes", "2,3"],
        "error: no polynomial of degree <= 0 fits the supplied counts for "
        "nu=(2, 1), mu=(1, 1, 1)\n",
    )


def test_decompose_cli_refuses_a_module_with_too_many_highest_weights(monkeypatch):
    from weylworks import cli
    from weylworks.glmodules import ExplicitModule

    zero = (RatMat.from_entries(2, 2, []),)
    argv = ["decompose", "--module", "std", "-n", "2"]
    # with E = 0, e_2 of C^2 is a highest-weight vector at (0, 1)
    std = ExplicitModule(2, 2, ((1, 0), (0, 1)), zero, zero)
    monkeypatch.setattr(cli, "parse_module_expr", lambda text, n: std)
    one_error_line(argv, "error: highest-weight vector found at non-dominant weight")
    # weights (2, 0) and (1, 1) with E = 0 claim 3 + 1 dimensions out of 2
    doctored = ExplicitModule(2, 2, ((2, 0), (1, 1)), zero, zero)
    monkeypatch.setattr(cli, "parse_module_expr", lambda text, n: doctored)
    one_error_line(argv, "error: multiplicities account for dimension 4, module has 2")


def test_skewhowe_pairs_check_the_dimension_identity(monkeypatch):
    from weylworks import skewhowe

    honest = skewhowe.dim_irrep
    monkeypatch.setattr(
        skewhowe, "dim_irrep", lambda *args, **kwargs: honest(*args, **kwargs) + 1
    )
    one_error_line(
        ["skewhowe", "-n", "2", "-m", "3", "-N", "3"],
        "error: summand dimensions add to 37, wedge has 20\n",
    )


def test_springer_cli_default_primes():
    code, out, _ = run_cli(["springer", "--nu", "2,1", "--mu", "1,1,1", "-n", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["poly"] == ["1", "2"]
    assert payload["match"] is True


def test_lattice_jordan_cli():
    payload = payload_of(["lattice", "jordan", "--mu", "1,2", "-n", "2"])
    assert payload["jordan_type"] == [2, 1]
    assert payload["dim"] == 3


def test_lattice_stratum_cli(tmp_path):
    from weylworks.lattice import fixed_point

    sub = fixed_point((1, 1), 2)
    path = tmp_path / "sub.json"
    path.write_text(json.dumps(sub.to_dict()))
    payload = payload_of(
        ["lattice", "stratum", "--lambda", "2", "--subspace", str(path)]
    )
    assert payload["location"] == "in-closure-only"
    payload = payload_of(["lattice", "stratum", "--lambda", "2,1", "--mu", "2,1"])
    assert payload["location"] == "in-stratum"


def test_lattice_stratum_finds_the_jordan_type_once(monkeypatch):
    from weylworks import lattice

    calls = {"_require_shift_stable": 0, "power_ranks": 0}
    for name in calls:
        honest = getattr(lattice, name)

        def counted(*args, _name=name, _honest=honest):
            calls[_name] += 1
            return _honest(*args)

        monkeypatch.setattr(lattice, name, counted)
    payload = payload_of(["lattice", "stratum", "--lambda", "2,1", "--mu", "2,1"])
    assert payload["location"] == "in-stratum"
    assert calls == {"_require_shift_stable": 1, "power_ranks": 1}


def test_lattice_mv_cycles_cli():
    payload = payload_of(
        ["lattice", "mv-cycles", "--lambda", "2,1,0", "--mu", "1,1,1", "-n", "3"]
    )
    assert payload["count"] == 2
    assert "character" in payload["derivation"]


def test_lattice_requires_operation():
    code, out, err = run_cli(["lattice"])
    assert code == 2
    assert out == ""


def test_crossval_cli_exit_zero():
    payload = payload_of(["crossval", "--lambda", "2,1,0", "-n", "3", "-m", "3"])
    assert payload["match"] is True
    row = next(r for r in payload["rows"] if r["mu"] == [1, 1, 1])
    assert (
        row["kostka"] == row["skewhowe"] == row["springer"] == row["lattice_mv"] == 2
    )


def test_crossval_validates_shape():
    code, _, err = run_cli(["crossval", "--lambda", "4,1", "-n", "3", "-m", "3"])
    assert code == 1
    assert "error:" in err


def test_cross_validate_report_values():
    # one-column lambda: the springer route counts X = 0 Grassmannian
    # points, and every mu row collapses to ones
    report = cross_validate((1, 1, 1), 2, 3)
    assert report.match
    for row in report.rows:
        assert row.kostka == row.skewhowe == row.springer == row.lattice_mv == 1
    assert len(report.rows) == 4


def test_crossval_checks_the_point_counts_across_each_orbit(monkeypatch):
    # one power of q moved in the flag-count skeleton: the leading
    # coefficients still match Kostka, but P_mu(q) is no longer the same
    # polynomial at every rearrangement of mu
    from weylworks import springercount

    honest = springercount._transitions

    def skewed(nu, k):
        found = honest(nu, k)
        if len(found) > 1:
            quotient, binomials, power = found[-1]
            found = found[:-1] + ((quotient, binomials, power + 1),)
        return found

    monkeypatch.setattr(springercount, "_transitions", skewed)
    # count past the cache of count polynomials, so that the skew reaches
    # the counts and no skewed polynomial is left cached for later callers
    monkeypatch.setattr(
        springercount, "_count_polynomial", springercount._count_polynomial.__wrapped__
    )
    with pytest.raises(InvariantViolation, match="point-count polynomial") as err:
        cross_validate((2, 2), 3, 3)
    assert isinstance(err.value.__cause__, InvariantViolation)


@pytest.mark.parametrize("index", [-1, 0], ids=["leading", "lower"])
def test_crossval_checks_each_rearrangement_against_its_sorted_mu(monkeypatch, index):
    # a rearrangement gets its polynomial alone, with no table; one
    # coefficient moved at (1,2,1) is caught against the table of (2,1,1),
    # whether it is the leading coefficient, crossval's springer column,
    # or a lower one that no column shows
    from weylworks import springercount

    honest = springercount.count_polynomial

    def doctored(nu, mu, n=None):
        poly = list(honest(nu, mu, n))
        if tuple(mu) == (1, 2, 1):
            poly[index] += 1
        return tuple(poly)

    monkeypatch.setattr(springercount, "count_polynomial", doctored)
    with pytest.raises(
        InvariantViolation,
        match=r"at mu=\(1, 2, 1\): point-count polynomial .* at the rearrangement "
        r"\(2, 1, 1\)",
    ) as err:
        cross_validate((2, 2), 3, 3)
    assert isinstance(err.value.__cause__, InvariantViolation)


def test_empty_argv_prints_usage():
    code, out, err = run_cli([])
    assert code == 2
    assert out == ""
    assert "usage" in err.lower()


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["character", "--lambda", "2,1", "-n", "2", "--bogus"])
    assert exc.value.code == 2


def test_double_dash_as_an_option_value_exits_two():
    # argparse hands --size-guard=-- over as [] without calling int()
    with pytest.raises(SystemExit) as exc:
        main(["character", "--lambda", "1", "-n", "1", "--size-guard=--"])
    assert exc.value.code == 2


def test_malformed_vector_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["character", "--lambda", "2,x", "-n", "2"])
    assert exc.value.code == 2


def test_help_states_honesty_notes():
    import contextlib

    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = out.getvalue()
    assert "derived from character data" in text
    assert "basis-dependent" in text
    assert "rank (= 1)" in text
    assert "by the construction of the counting program" in text
    assert "WEYLWORKS_MAX_DIM" in text


def test_size_guard_flag():
    code, _, err = run_cli(["character", "--lambda", "13,0", "-n", "2"])
    assert code == 1
    assert "guard" in err
    code, out, _ = run_cli(
        ["character", "--lambda", "13,0", "-n", "2", "--size-guard", "20"]
    )
    assert code == 0
    assert json.loads(out)["dim"] == 14


def run_usage_error(argv):
    """main(argv) must end in SystemExit; return (code, stdout, stderr)."""
    import contextlib

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        "--seed 9 crossval --lambda 2 -n 2 -m 2",
        "irrep --lambda 2,1 -n 2 --size-guard 5",
        "lattice jordan --mu 2,1 -n 2 --size-guard 5",
        "irrep --lambda 2,1 -n 2 --emit-matrices json",
    ],
)
def test_removed_options_are_usage_errors(argv):
    code, out, err = run_usage_error(argv.split())
    assert code == 2
    assert out == ""
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err


@pytest.mark.parametrize(
    "argv",
    [
        "character --lambda 1,0 -n 2",
        "irrep --lambda 1,0 -n 2",
        "springer --nu 2,1 --mu 1,1,1 -n 3",
        "lattice jordan --mu 2,1 -n 2",
        "crossval --lambda 2,1 -n 3 -m 3",
    ],
)
def test_malformed_max_dim_is_refused_by_every_command(monkeypatch, argv):
    monkeypatch.setenv("WEYLWORKS_MAX_DIM", "zero")
    code, out, err = run_cli(argv.split())
    assert code == 1
    assert out == ""
    assert err == "error: WEYLWORKS_MAX_DIM must be an integer, got 'zero'\n"


def test_jnum_policy():
    assert _jnum(5) == 5
    assert _jnum(2**53 - 1) == 2**53 - 1
    assert _jnum(2**53) == str(2**53)
    assert _jnum(-(2**60)) == str(-(2**60))


def test_skewhowe_pairs_honour_size_guard():
    # dim_irrep of the gl(4) side counts 13-box tableaux
    code, _, err = run_cli(["skewhowe", "-n", "4", "-m", "4", "-N", "13"])
    assert code == 1 and "guard" in err
    payload = payload_of(
        ["skewhowe", "-n", "4", "-m", "4", "-N", "13", "--size-guard", "20"]
    )
    assert payload["dim"] == 560


@pytest.mark.parametrize(
    "argv",
    [
        "crossval --lambda 1 -n 1500 -m 1",
        "crossval --lambda 1 -n 100000000 -m 1",
        "crossval --lambda 1 -n 1 -m 100000000",
        "crossval --lambda 1 -n 99999999999999999999 -m 2",
    ],
)
def test_crossval_refuses_an_oversized_answer_at_once(argv):
    code, out, err = run_cli(argv.split())
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: crossval answer")
    assert "guard 1000000" in err


def test_crossval_answer_guard_counts_rows_times_ranks(monkeypatch):
    # (2,2,1,1) at n = m = 5: C(10, 4) = 210 rows of 5 + 5 cells
    monkeypatch.setenv("WEYLWORKS_MAX_DIM", "2099")
    with pytest.raises(ResourceLimitError, match=r"= 210 x 10\), above the guard 2099"):
        cross_validate((2, 2, 1, 1), 5, 5)
    monkeypatch.setenv("WEYLWORKS_MAX_DIM", "2100")
    assert len(cross_validate((2, 2, 1, 1), 5, 5).rows) == 210


def test_crossval_keeps_the_class_of_a_routes_refusal(monkeypatch):
    # the 24 x 24 answer passes the guard of 1,000 cells; a route's
    # refusal then reaches the caller as a refusal, not as a bare error
    monkeypatch.setenv("WEYLWORKS_MAX_DIM", "1000")
    with pytest.raises(ResourceLimitError, match="cross-validation failed") as err:
        cross_validate((1,) * 24, 2, 24, size_guard=30)
    assert isinstance(err.value.__cause__, ResourceLimitError)


def test_crossval_beyond_the_old_wedge_guard():
    # the whole wedge has C(25, 8) = 1,081,575 > 10^6 dimensions
    payload = payload_of(["crossval", "--lambda", "3,3,2", "-n", "5", "-m", "5"])
    assert payload["match"] is True


@pytest.mark.parametrize(
    "content",
    [
        "[]",
        "{}",
        '{"n": 1, "D": 1, "basis": 3}',
        # a zero denominator, a non-integer n, and an n * D past the guard
        '{"n": 1, "D": 1, "basis": [["1/0"]]}',
        '{"n": 1.5, "D": 1, "basis": []}',
        '{"n": true, "D": 1, "basis": []}',
        '{"n": 1000000000, "D": 1000000000, "basis": []}',
    ],
)
def test_malformed_subspace_file_is_one_error_line(tmp_path, content):
    path = tmp_path / "sub.json"
    path.write_text(content)
    for operation in (["jordan"], ["stratum", "--lambda", "1"]):
        code, out, err = run_cli(["lattice", *operation, "--subspace", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


def test_deeply_nested_module_is_one_error_line():
    text = "tensor(" * 2000 + "std" + ",std)" * 2000
    code, out, err = run_cli(["decompose", "--module", text, "-n", "1"])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_memory_error_is_one_error_line(monkeypatch):
    from weylworks import cli

    def exhausted(args):
        raise MemoryError

    monkeypatch.setitem(cli._HANDLERS, "character", exhausted)
    code, out, err = run_cli(["character", "--lambda", "1,0", "-n", "2"])
    assert (code, out) == (1, "")
    assert err == "error: input too large: out of memory\n"


# Arguments with a row or n beyond Python's recursion limit. The Kostka
# count, the flag count and the weight enumerators are loops, and so is
# skewhowe._slice: a forward pass over the rows through a table of row
# choices, then a backward count and a backward build, each skipping the
# rows that hold no pairs and the dead states. The skewhowe pairs check
# enumerates each slice only over the rows up to the last one with pairs,
# so these are answers (the payload subset each must show). The deep decompose above covers the RecursionError mapping.
DEEP_ARGV = {
    "character --lambda 1500 -n 1 --size-guard 5000": {
        "dim": 1,
        "entries": [{"mu": [1500], "multiplicity": 1}],
    },
    "springer --nu 1 --mu 1 -n 1500": {
        "mu": [1] + [0] * 1499,
        "kostka": 1,
        "leading": 1,
        "match": True,
    },
    "skewhowe -n 1500 -m 1 -N 1": {
        "dim": 1500,
        "pairs": [{"gln": [1] + [0] * 1499, "glm": [1], "dim_gln": 1500, "dim_glm": 1}],
    },
    "skewhowe -n 1500 -m 1 -N 1500 --size-guard 5000": {
        "dim": 1,
        "pairs": [{"gln": [1] * 1500, "glm": [1500], "dim_gln": 1, "dim_glm": 1}],
    },
    "decompose --module sym(1) -n 1100": {
        "dim": 1100,
        "multiplicities": [{"lambda": [1] + [0] * 1099, "multiplicity": 1}],
    },
}


@pytest.mark.parametrize("argv", list(DEEP_ARGV))
def test_recursion_depth_is_one_error_line(argv):
    payload = payload_of(argv.split())
    for key, value in DEEP_ARGV[argv].items():
        assert payload[key] == value, key


def test_springer_guard_refuses_before_counting(monkeypatch):
    from weylworks import springercount

    def never(*args, **kwargs):
        raise AssertionError("point counts computed before the size guard")

    monkeypatch.setattr(springercount, "point_count_table", never)
    argv = ["springer", "--nu", "4,3,3,2,1", "--mu", ",".join(["1"] * 13), "-n", "13"]
    code, out, err = run_cli(argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "exceeds the guard 12" in err


def run_entry_point(argv, timeout, preexec_fn=None, extra_env=None):
    """python -W error -m weylworks.cli argv in a child, killed at timeout;
    preexec_fn runs in the child before it starts Python, and extra_env
    is added to its environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, **(extra_env or {}))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "weylworks.cli", *argv],
        capture_output=True, text=True, env=env, timeout=timeout,
        preexec_fn=preexec_fn,
    )


@pytest.mark.parametrize(
    "argv",
    [
        "springer --nu 4,3,3,2 --mu " + ",".join(["1"] * 12) + " -n 12",
        "crossval --lambda 2,1 -n 3 -m 3",
        "irrep --lambda 4,3,2,1,0 -n 5 --emit-matrices",
    ],
)
def test_stdout_does_not_depend_on_the_hash_seed(argv):
    # the flag count carries its states in a dict, and no set order may
    # reach stdout anywhere
    outs = []
    for seed in ("0", "1"):
        proc = run_entry_point(argv.split(), timeout=120,
                               extra_env={"PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def limit_address_space():
    # 1.5 GB: a rank-sized list of 10**9 entries cannot be built under it
    limit = 1_500_000 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize(
    "argv",
    [
        "character --lambda 1 -n 1000000000",
        "lattice jordan --mu 1000000000 -n 1",
        "lattice mv-cycles --lambda 1 --mu 1 -n 1000000000",
        "lattice stratum --lambda 1000000000 --mu 1000000000",
        "skewhowe -n 1000000000 -m 1 -N 1",
        "skewhowe -n 1000000000 -m 1 -N 1 --lambda 1",
        "springer --nu 1 --mu 1 -n 1000000000",
        "decompose --module irrep(1000000000) -n 2",
        "decompose --module det -n 1000000000",
        "decompose --module adjoint -n 1000000000",
        "springer --nu 1000000000 --mu 1000000000 -n 1 --size-guard 2000000000",
    ],
)
def test_huge_rank_is_refused_before_it_is_built(argv):
    # each built an O(rank) object before any guard looked at the rank:
    # a MemoryError traceback under the limit, or a run past the timeout
    proc = run_entry_point(argv.split(), timeout=15, preexec_fn=limit_address_space)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert "above the guard 1000000" in lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        # C(nm, N) for these ranks outlasts the timeout; |lambda| != N is
        # refused without it
        "skewhowe -n 100000 -m 100000 -N 100000000 --lambda 1",
        # the ambient Lambda^1(C^2)^(x)20 has 2^20 dimensions; building
        # its first 2^19 before the guard fired took 18 s and 2 GB
        "irrep --lambda 20,0 -n 2",
        # the tableau guard refuses the adjoint of gl(20); building its
        # 399-dimensional basis first must not take long
        "decompose --module adjoint -n 20",
    ],
)
def test_cheap_refusal_comes_before_expensive_work(argv):
    proc = run_entry_point(argv.split(), timeout=5)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is Linux's")
def test_long_lattice_jordan_fits_in_one_gib():
    # n*D = 9,000 passes every guard; a dense n*D x dim matrix of
    # Fractions for it does not fit in 1 GiB, the sparse rows do
    def limit_to_one_gib():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    argv = ["lattice", "jordan", "--mu", ",".join(["2"] * 3000), "-n", "3000"]
    proc = run_entry_point(argv, timeout=60, preexec_fn=limit_to_one_gib)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["dim"], payload["jordan_type"]) == (6000, [2] * 3000)


def test_springer_refuses_a_huge_part_at_once():
    # conjugate((10**9,)) takes a step per box; the Kostka guard on |nu|
    # must refuse first.  The timeout turns a hang into a failure.
    proc = run_entry_point(
        ["springer", "--nu", "1000000000", "--mu", "1000000000", "-n", "1"], timeout=20
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: a tableau count for |shape| = 1000000000 exceeds the guard 12; "
        "raise it with --size-guard (size_guard= in the library)\n"
    )


def test_character_refuses_a_table_past_the_weight_guard():
    # (3000000, 0, 0) has about 4.5 * 10**12 weights; the running weight
    # count must refuse at WEYLWORKS_MAX_DIM.  The timeout turns a hang
    # into a failure.
    proc = run_entry_point(
        ["character", "--lambda", "3000000,0,0", "-n", "3", "--size-guard", "4000000"],
        timeout=20, extra_env={"WEYLWORKS_MAX_DIM": "1000000"},
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: the character table has more than 1000000 weights, the "
        "WEYLWORKS_MAX_DIM guard; raise it if intended\n"
    )


def test_character_of_a_huge_rank_is_refused_before_a_weight_is_built():
    # (12) padded to rank 10**6: the weight count passes the guard at the
    # second content, (11, 1), before any weight of 10**6 entries is
    # built.  Stripping the 999,999 trailing zeros one slice at a time
    # outlasted the timeout on its own.
    proc = run_entry_point(
        ["character", "--lambda", "12", "-n", "1000000"], timeout=15,
        preexec_fn=limit_address_space, extra_env={"WEYLWORKS_MAX_DIM": "1000000"},
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: the character table has more than 1000000 weights, the "
        "WEYLWORKS_MAX_DIM guard; raise it if intended\n"
    )


def test_springer_with_unequal_sizes_skips_the_huge_part():
    # |nu| != |mu|: every count and the Kostka number are 0 by size, so
    # neither may walk the 10**9 boxes.  The timeout turns a hang into a
    # failure.
    proc = run_entry_point(
        ["springer", "--nu", "1000000000", "--mu", "1", "-n", "1"], timeout=20
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["leading"], payload["kostka"], payload["match"]) == (0, 0, True)
    # every count is 0, so the degree bound is 0 too, not the 10**9 that
    # the product of the two jumps would give (one prime per degree)
    proc = run_entry_point(
        ["springer", "--nu", "1", "--mu", "1000000000,1", "-n", "2"], timeout=20
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["counts"] == {"2": 0, "3": 0, "5": 0}
    assert (payload["poly"], payload["kostka"], payload["match"]) == (["0"], 0, True)


def test_springer_degree_bound_is_linear_in_the_rank():
    # the bound is the sum of products of distinct jumps; summed pair by
    # pair it took C(n, 2) steps, about 10**10 here.  The timeout turns a
    # hang into a failure.
    proc = run_entry_point(["springer", "--nu", "1", "--mu", "1", "-n", "100000"],
                           timeout=20)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["poly"], payload["match"]) == (["1"], True)


def test_springer_decides_large_primes_at_once():
    # Trial division up to the square root of 10**18 + 3 takes 10**9
    # steps; the timeout turns a hang into a failure.
    proc = run_entry_point(
        ["springer", "--nu", "1", "--mu", "1", "-n", "1",
         "--primes", "2,1000000000000000003"], timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["counts"] == {"2": 1, "1000000000000000003": 1}
    # psi_13: beyond the range where the primality test is exact
    proc = run_entry_point(
        ["springer", "--nu", "1", "--mu", "1", "-n", "1",
         "--primes", "2,3317044064679887385961981"], timeout=20,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv, key, expected",
    [
        ("character --lambda 1000000000 -n 1 --size-guard 2000000000",
         "entries", [{"mu": [10**9], "multiplicity": 1}]),
        ("decompose --module sym(1000000000) -n 1 --size-guard 2000000000",
         "multiplicities", [{"lambda": [10**9], "multiplicity": 1}]),
    ],
)
def test_one_long_row_has_its_one_weight_at_once(argv, key, expected):
    # the one content (10**9) must not be found by trying every part
    # from 10**9 down to 0; the timeout turns a hang into a failure
    proc = run_entry_point(argv.split(), timeout=5, preexec_fn=limit_address_space)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["dim"], payload[key]) == (1, expected)


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        ("irrep --lambda 1000000 -n 1", 0,
         ("weights", [{"mu": [10**6], "multiplicity": 1}])),
        # the irreducible is built, then its tableau count is refused
        ("decompose --module irrep(1000000) -n 1", 1,
         "error: a tableau count for |shape| = 1000000 exceeds the guard 12; "
         "raise it with --size-guard (size_guard= in the library)\n"),
    ],
)
def test_one_long_row_is_one_symmetric_power(argv, code, expected):
    # 10**6 columns of height 1 are one factor Sym^(10**6)(C^1) with one
    # label; a tensor product of one factor per column took 3.2 s at
    # 20,000 columns and grew quadratically.  The timeout turns a hang
    # into a failure.
    proc = run_entry_point(argv.split(), timeout=20, preexec_fn=limit_address_space)
    assert proc.returncode == code, proc.stderr
    if code:
        assert (proc.stdout, proc.stderr) == ("", expected)
    else:
        payload = json.loads(proc.stdout)
        assert (payload["dim"], payload[expected[0]]) == (1, expected[1])


def test_module_entry_point_runs_without_warnings():
    proc = run_entry_point(["character", "--lambda", "1,0", "-n", "2"], timeout=60)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["dim"] == 2
