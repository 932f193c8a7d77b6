"""Every cross-check in src/ has a test that makes it fire.

A check that no test can make fire may have been disarmed without
anyone noticing.  The raise sites are found with ast, each keyed by its
module, its enclosing function and the start of its message (the
message's literal text, with "{}" for each formatted value), so the
registry survives moves within a file.  A site no honest input reaches
is listed with the test that doctors a layer to reach it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "weylworks"
CHECKS = {"InvariantViolation", "NonPolynomialCountError"}

# (module, function, message start) -> the tests that make the site fire
FIRING_TESTS = {
    ("crossval", "cross_validate", "point-count polynomial {} differs"): [
        "test_cli.py::test_crossval_checks_the_point_counts_across_each_orbit",
        "test_cli.py::test_crossval_checks_each_rearrangement_against_its_sorted_mu",
    ],
    ("glmodules", "decompose", "highest-weight vector found at non-dominant"): [
        "test_glmodules.py::test_decompose_rejects_a_non_dominant_highest_weight",
        "test_cli.py::test_decompose_cli_refuses_a_module_with_too_many_highest_weights",
    ],
    ("glmodules", "decompose", "multiplicities account for dimension"): [
        "test_glmodules.py::test_decompose_checks_the_dimension_sum",
        "test_cli.py::test_decompose_cli_refuses_a_module_with_too_many_highest_weights",
    ],
    ("glmodules", "verify_chevalley_relations", "{}_{} maps weight"): [
        "test_glmodules.py::test_chevalley_relations_check_the_weight_shifts",
    ],
    ("glmodules", "verify_chevalley_relations", "[E_{}, F_{}] fails"): [
        "test_glmodules.py::test_chevalley_relations_across_constructors",
    ],
    ("glmodules", "submodule", "generator image at weight"): [
        "test_glmodules.py::test_submodule_rejects_spaces_not_closed_under_the_generators",
    ],
    ("linalg", "EchelonBasis.coords", "vector lies outside the spanned subspace"): [
        "test_glmodules.py::test_submodule_rejects_spaces_not_closed_under_the_generators",
    ],
    ("skewhowe", "verify_commuting_actions", "{} and {} fail to commute"): [
        "test_skewhowe.py::test_commuting_actions_check_names_the_failing_pair",
    ],
    ("skewhowe", "decompose_howe", "summand dimensions add to"): [
        "test_skewhowe.py::test_decompose_howe_checks_the_dimension_identity",
        "test_cli.py::test_skewhowe_pairs_check_the_dimension_identity",
    ],
    ("skewhowe", "decompose_howe", "expected one joint highest-weight line"): [
        "test_cli.py::test_skewhowe_pairs_refuse_a_second_joint_highest_weight_line",
    ],
    ("skewhowe", "_certify_carried", "hom space at mu={} is not the one"): [
        "test_skewhowe.py::test_hom_dims_certificate_catches_a_wrong_slice",
        "test_skewhowe.py::test_induced_module_certificate_catches_a_wrong_slice",
        "test_skewhowe.py::test_hom_dims_certificate_sees_the_interior_row_of_a_run",
    ],
    ("skewhowe", "induced_gln_module", "the hom spaces of lam={} sum to"): [
        "test_skewhowe.py::test_induced_module_rejects_hom_spaces_not_closed_under_f",
        "test_skewhowe.py::test_induced_module_rejects_corrupted_gln_signs",
    ],
    # no integer q reaches it: the tests hand in a q whose square is off
    ("springercount", "gaussian_binomial", "q-binomial product did not divide"): [
        "test_springercount.py::test_gaussian_binomial_divisibility_check_fires",
        "test_springercount.py::test_springer_cli_reports_a_failed_q_binomial",
    ],
    ("springercount", "_count_polynomial", "count polynomial for nu={}"): [
        "test_springercount.py::test_count_polynomial_digit_sum_check_fires",
    ],
    ("springercount", "interpolate", "count at q={} is {} but"): [
        "test_springercount.py::test_interpolate_failure_modes",
    ],
    ("springercount", "point_count_table", "no polynomial of degree <= {} fits"): [
        "test_springercount.py::test_point_count_table_prime_validation",
        "test_cli.py::test_springer_refuses_primes_too_few_for_the_degree",
    ],
    ("springercount", "point_count_table", "the counts for nu={}, mu={} fit degree"): [
        "test_springercount.py::test_point_count_table_demands_the_fit_of_its_polynomial",
    ],
    ("springercount", "point_count_table", "the counts for nu={}, mu={} fit {}, not"): [
        "test_springercount.py::test_point_count_table_demands_the_fit_of_its_polynomial",
        "test_springercount.py::test_doctored_counts_are_never_tabulated",
    ],
    ("springercount", "component_count", "leading coefficient {} disagrees"): [
        "test_springercount.py::test_component_count_checks_kostka",
    ],
}


def _template(node):
    """The literal text of a message expression, "{}" per formatted value."""
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(_template(part) for part in node.values)
    return "{}"


def raise_sites():
    """(module, function, message) for every raise of a cross-check."""
    sites = []

    def visit(node, scope, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name], module)
                continue
            if (
                isinstance(child, ast.Raise)
                and isinstance(child.exc, ast.Call)
                and getattr(child.exc.func, "id", None) in CHECKS
            ):
                args = child.exc.args
                sites.append((module, ".".join(scope), _template(args[0]) if args else ""))
            visit(child, scope, module)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), [], path.stem)
    return sites


def _registered(site):
    module, function, message = site
    return [
        key for key in FIRING_TESTS
        if key[:2] == (module, function) and message.startswith(key[2])
    ]


def test_every_cross_check_has_a_firing_test():
    sites = raise_sites()
    unregistered = [site for site in sites if len(_registered(site)) != 1]
    assert not unregistered, unregistered
    # and no entry outlives its site
    matched = {key for site in sites for key in _registered(site)}
    assert matched == set(FIRING_TESTS), set(FIRING_TESTS) - matched


def test_the_firing_tests_exist():
    for tests in FIRING_TESTS.values():
        assert tests
        for test in tests:
            filename, name = test.split("::")
            tree = ast.parse((ROOT / "tests" / filename).read_text())
            names = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
            assert name in names, test
