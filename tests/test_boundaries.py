"""The module-level names the benchmark's traced run wraps are still called.

perfbench/spans.py measures each layer by replacing a module attribute
(``springercount.count_fiber_points``, ``glmodules.dim_irrep``, ...) with
a wrapper.  A refactor that inlines one of these calls, or calls a
private helper instead, would leave that layer reading zero calls and
zero seconds.  Counting wrappers installed the same way show that each
name is still looked up at call time, and every binding the benchmark
patches, and every layer a workload requires, still resolves.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from weylworks import characters, glmodules, lattice, skewhowe, springercount
from weylworks.cli import cross_validate

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name):
    """perfbench/<name>.py as a module, read only: no bytecode is written."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_boundaries_resolve(monkeypatch):
    spans = load_perfbench(monkeypatch, "spans")
    workloads = load_perfbench(monkeypatch, "workloads")
    names = {"cli.main"}  # the child wraps the entry point itself
    for path, attr, name, _ in spans.BOUNDARIES:
        assert attr in spans._resolve(path).__dict__, (path, attr)
        names.add(name)
    for workload in workloads.WORKLOADS.values():
        assert set(workload.layers) <= names, workload.name


@pytest.fixture
def calls(monkeypatch):
    """Wrap (module, name) pairs with counters; returns the counter dict."""
    counts = {}

    def wrap(module, name):
        original = getattr(module, name)
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        counts[key] = 0

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in (
        (springercount, "point_count_table"),
        (springercount, "count_fiber_points"),
        (springercount, "interpolate"),
        (springercount, "count_polynomial"),
        (springercount, "kostka"),
        (characters, "kostka"),
        (lattice, "mv_cycle_count"),
        (glmodules, "dim_irrep"),
        (skewhowe, "dim_irrep"),
        (skewhowe, "hom_space"),
        (skewhowe, "kernel"),
    ):
        wrap(module, name)
    return counts


@pytest.mark.parametrize(
    "primes", [None, springercount.first_primes(8)], ids=["default", "explicit"]
)
def test_point_count_table_calls_the_counter_and_the_fit(calls, primes):
    table = springercount.point_count_table((2, 1, 1), (1, 1, 1, 1), primes=primes)
    assert calls["springercount.count_fiber_points"] == len(table.evaluations)
    # the table fits its counts once, at the degree of the polynomial the
    # flag program gives, whichever primes are supplied
    assert calls["springercount.interpolate"] == 1


def test_component_count_calls_kostka(calls):
    assert springercount.component_count((2, 1, 1), (1, 1, 1, 1)) == 3
    assert calls["springercount.kostka"] == 1


def test_decompositions_call_dim_irrep(calls):
    adjoint = glmodules.adjoint_module(3)
    glmodules.decompose(glmodules.tensor(adjoint, adjoint))
    assert calls["glmodules.dim_irrep"] >= 1
    skewhowe.decompose_howe(3, 2, 3)
    assert calls["skewhowe.dim_irrep"] >= 1


def test_crossval_eliminates_once_per_orbit(calls):
    # 126 compositions of 5 into 5 parts fall into 7 S_5 orbits, one per
    # partition of 5; only each orbit's sorted mu reaches hom_space
    report = cross_validate((1, 1, 1, 1, 1), 5, 5)
    assert len(report.rows) == 126 and report.match
    assert calls["skewhowe.hom_space"] == 7
    assert calls["skewhowe.kernel"] == 7


def test_induced_module_eliminates_once_per_orbit(calls):
    # every other mu's hom space is its sorted mu's, carried by the slice
    # certificate, so the 126 weight spaces take 7 eliminations
    mod = skewhowe.induced_gln_module(skewhowe.build_bimodule(5, 5, 5), (1, 1, 1, 1, 1))
    assert mod.dim == 126
    assert calls["skewhowe.hom_space"] == 7
    assert calls["skewhowe.kernel"] == 7


def test_crossval_tabulates_point_counts_once_per_orbit(calls):
    # only each orbit's sorted mu gets a table, with its counts at the
    # primes and their fit; every other mu gets its polynomial alone
    report = cross_validate((1, 1, 1, 1, 1), 5, 5)
    assert report.match
    counted = calls["springercount.count_fiber_points"]
    assert calls["springercount.point_count_table"] == 7
    assert calls["springercount.interpolate"] == 7
    sorted_mus = {tuple(sorted(row.mu, reverse=True)) for row in report.rows}
    tables = [springercount.point_count_table((1,) * 5, mu, 5) for mu in sorted_mus]
    assert counted == sum(len(table.evaluations) for table in tables) == 65


def test_crossval_asks_kostka_and_the_lattice_once_per_orbit(calls):
    # Kostka and the lattice count are symmetric in mu, so only each
    # orbit's sorted mu asks for them; the lattice count reads its own
    # Kostka number through characters.character
    report = cross_validate((1, 1, 1, 1, 1), 5, 5)
    assert report.match
    assert calls["lattice.mv_cycle_count"] == 7
    assert calls["characters.kostka"] == 7 + 7
    # every other mu, 126 - 7 of them, gets its own polynomial; each of
    # the 7 tables also asks for one, and so does each of its 65 counts
    assert calls["springercount.count_fiber_points"] == 65
    assert calls["springercount.count_polynomial"] == 119 + 7 + 65
