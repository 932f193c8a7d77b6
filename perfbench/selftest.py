"""Self-tests of the benchmark itself (stdlib unittest, under a minute).

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import weylworks  # noqa: E402
from weylworks import cli  # noqa: E402
from weylworks.weights import partitions  # noqa: E402
from workloads import SPRINGER_STRATA, WORKLOADS  # noqa: E402

# One small job per command the workloads use.
SMALL_JOBS = [
    ["crossval", "--lambda", "2,1,1", "-n", "4", "-m", "3"],
    ["springer", "--nu", "3,2,1", "--mu", "1,1,1,1,1,1", "-n", "6"],
    ["irrep", "--lambda", "3,2,1,0", "-n", "4"],
    ["decompose", "--module", "tensor(adjoint,adjoint)", "-n", "4"],
]
# Every job of the workloads that finish in seconds; the crossval jobs are
# compared on every traced run of the benchmark instead.
IDENTITY_JOBS = (
    SMALL_JOBS + WORKLOADS["modules"].jobs(0) + WORKLOADS["springer-flags"].jobs(0)
)


def run_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def run_child(jobs, trace: bool) -> dict:
    report, reason = run.run_child(jobs, trace, time.monotonic() + 300)
    if report is None:
        raise AssertionError(reason)
    return report


class TracedOutputIsIdentical(unittest.TestCase):
    def test_traced_and_untraced_stdout_match_byte_for_byte(self):
        plain = run_child(IDENTITY_JOBS, trace=False)
        traced = run_child(IDENTITY_JOBS, trace=True)
        for argv, a, b in zip(IDENTITY_JOBS, plain["jobs"], traced["jobs"]):
            with self.subTest(job=" ".join(argv)):
                self.assertEqual(a["rc"], 0)
                self.assertEqual(a["stdout"], b["stdout"])
        names = {span[3] for span in traced["spans"]}
        self.assertIn("skewhowe.hom_space", names)
        self.assertIn("linalg.echelon.insert", names)
        self.assertNotIn("spans", plain)

    def test_install_restores_every_binding(self):
        before = [spans._resolve(p).__dict__[a] for p, a, _, _ in spans.BOUNDARIES]
        original = weylworks.skewhowe.kernel
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(weylworks.skewhowe.kernel, original)
            run_cli(SMALL_JOBS[0])
        finally:
            tracer.uninstall()
        after = [spans._resolve(p).__dict__[a] for p, a, _, _ in spans.BOUNDARIES]
        self.assertEqual(before, after)
        # kernel is reached through skewhowe's own binding, inside hom_space
        by_id = {s[0]: s for s in tracer.spans}
        kernels = [s for s in tracer.spans if s[3] == "linalg.kernel"]
        self.assertTrue(kernels)
        self.assertTrue(all(by_id[s[1]][3] == "skewhowe.hom_space" for s in kernels))


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_jobs_other_seed_other_jobs(self):
        springer = WORKLOADS["springer-flags"]
        self.assertEqual(springer.jobs(0), springer.jobs(0))
        self.assertEqual(springer.jobs(7), springer.jobs(7))
        self.assertNotEqual(springer.jobs(0), springer.jobs(1))
        self.assertEqual(len(springer.jobs(3)), 12)

    def test_strata_are_the_partitions_of_12_with_3_to_6_parts(self):
        listed = [nu for stratum in SPRINGER_STRATA for nu in stratum]
        wanted = [p for p in partitions(12) if 3 <= len(p) <= 6]
        self.assertEqual(sorted(listed), sorted(wanted))
        self.assertEqual(len(listed), len(set(listed)))

    def test_fixed_workloads_ignore_the_seed(self):
        for w in WORKLOADS.values():
            if not w.seeded:
                self.assertEqual(w.jobs(0), w.jobs(5))


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.outputs = {argv[0]: (argv, *run_cli(argv)) for argv in SMALL_JOBS}

    def problems(self, command, edit=None, rc=None, reference=None):
        argv, code, stdout = self.outputs[command]
        if edit is not None:
            payload = json.loads(stdout)
            edit(payload)
            stdout = json.dumps(payload, indent=2) + "\n"
        return checks.check_job(argv, code if rc is None else rc, stdout, weylworks, reference)

    def test_genuine_outputs_pass(self):
        for command in self.outputs:
            with self.subTest(command=command):
                argv, code, stdout = self.outputs[command]
                self.assertEqual(self.problems(command, reference=checks.digest(stdout)), [])

    def test_crossval_row_off_by_one_is_flagged(self):
        def corrupt(p):
            p["rows"][2]["skewhowe"] += 1

        found = self.problems("crossval", corrupt)
        self.assertEqual(len(found), 1)
        self.assertIn("crossval mu=", found[0])

    def test_each_corruption_is_flagged(self):
        def drop_row(p):
            p["rows"].pop()

        def weight(p):
            p["weights"][-1]["multiplicity"] += 1

        def mult(p):
            p["multiplicities"][0]["multiplicity"] += 1

        def mismatch(p):
            p["match"] = False

        def schema(p):
            p["schema_version"] = 2

        for command, edit in (
            ("crossval", drop_row),
            ("irrep", weight),
            ("decompose", mult),
            ("springer", mismatch),
            ("irrep", schema),
        ):
            with self.subTest(command=command, edit=edit.__name__):
                self.assertTrue(self.problems(command, edit))
        self.assertTrue(self.problems("irrep", rc=1))
        self.assertTrue(self.problems("decompose", reference="0" * 64))


class SelfTime(unittest.TestCase):
    def test_self_time_is_inclusive_minus_children(self):
        # a[0,10] -> b[1,4], c[5,9] -> a[6,8] (a nested in itself);
        # b[10,12] is a second root
        tree = [
            (0, -1, 0, "a", 0.0, 10.0, None),
            (1, 0, 0, "b", 1.0, 4.0, 2),
            (2, 0, 0, "c", 5.0, 9.0, 3),
            (3, 2, 0, "a", 6.0, 8.0, None),
            (4, -1, 1, "b", 10.0, 12.0, 5),
        ]
        self.assertEqual(spans.self_times(tree), [3.0, 3.0, 2.0, 2.0, 2.0])
        self.assertEqual(spans.outermost(tree), [True, True, True, False, True])
        summary = spans.summarize(tree)
        self.assertEqual(summary["a"]["s"], 10.0)  # the nested "a" is not added again
        self.assertEqual(summary["a"]["self_s"], 5.0)
        self.assertEqual(summary["a"]["calls"], 2)
        self.assertEqual(summary["b"]["attr"], 7)
        self.assertEqual(summary["b"]["attr_max"], 5)


class SpeedProbes(unittest.TestCase):
    def test_probes_fire_during_a_job_and_their_time_is_kept_apart(self):
        with child.SpeedProbe() as probes:
            end = time.perf_counter() + 4 * child.PROBE_EVERY_S
            while time.perf_counter() < end:
                pass
        # one at the start, one per timer tick, one at the end
        self.assertGreaterEqual(len(probes.samples), 4)
        self.assertGreaterEqual(probes.spent, sum(probes.samples))
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_untraced_child_reports_its_speed(self):
        report = run_child(SMALL_JOBS[:1], trace=False)
        self.assertGreater(report["probe_s"], 0)
        self.assertIsNone(run_child(SMALL_JOBS[:1], trace=True)["probe_s"])


class WithoutSources(unittest.TestCase):
    def test_exits_nonzero_and_prints_no_result(self):
        bare = ROOT / ".perfbench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        if (ROOT / "BENCHMARK.json").exists():
            shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, f"{HERE.name}/run.py", "--workload", "modules",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
