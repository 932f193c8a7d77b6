"""Benchmark of weylworks through its command-line entry point.

One run of one workload:

    python3 perfbench/run.py --workload crossval-wedge --seed 0 --seconds 20 --trace 0

Each repetition of the workload's job list runs in a fresh child process
(``child.py``), which calls ``weylworks.cli.main(argv)`` per job.  The
run repeats the job list as often as fits in ``--seconds`` (at least
once), then checks every job's output and prints, as the last line of
stdout, ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` repeats the job list untraced and then traced, and reports
the per-layer metrics from the spans of the traced repetitions
(``spans.py``); their spans are written to ``.perfbench_out/``.

Steadiness mode runs every workload K times with seeds 0..K-1,
alternating the workload order, and prints the median and quartiles of
every end-to-end metric:

    python3 perfbench/run.py --steady 10 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference_digests.json"

import checks  # noqa: E402  (siblings of this script)
import spans  # noqa: E402
from child import CALIBRATION_ROUNDS, PROBE_ROUNDS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 8  # import-only children before, and again after, the job lists
# The speed of a shared machine drifts by up to a factor of two within
# minutes, and every time measured on it with it.  Every child times a
# fixed calibration loop (child.calibrate) right after its import, and
# setup_s scales each import time to the speed at which that loop takes
# CALIB_REF_S, its median on the machine the benchmark was written on
# (Python 3.11.7).  wall_s scales each job list's time the same way, by
# the mean of the speed probes (a tenth of that loop) taken while the
# jobs ran (child.SpeedProbe).
CALIB_REF_S = 0.135
PROBE_REF_S = CALIB_REF_S * PROBE_ROUNDS / CALIBRATION_ROUNDS
RUN_LIMIT_S = 170.0  # no child may run past this many seconds into a run

# (metric, unit, span name, summary field); see spans.summarize.
SPAN_METRICS = (
    ("skewhowe.build_bimodule.s", "s", "skewhowe.build_bimodule", "s"),
    ("skewhowe.build_bimodule.wedge_dim", "count", "skewhowe.build_bimodule", "attr"),
    ("skewhowe.hom_space.calls", "count", "skewhowe.hom_space", "calls"),
    ("skewhowe.hom_space.self_s", "s", "skewhowe.hom_space", "self_s"),
    ("skewhowe.hom_space.slice_cols", "count", "skewhowe.hom_space", "attr"),
    ("skewhowe.hom_space.slice_cols_max", "count", "skewhowe.hom_space", "attr_max"),
    ("linalg.kernel.calls", "count", "linalg.kernel", "calls"),
    ("linalg.kernel.s", "s", "linalg.kernel", "s"),
    ("linalg.kernel.cells", "count", "linalg.kernel", "attr"),
    ("linalg.echelon.insert.calls", "count", "linalg.echelon.insert", "calls"),
    ("linalg.echelon.insert.s", "s", "linalg.echelon.insert", "s"),
    ("linalg.echelon.coords.calls", "count", "linalg.echelon.coords", "calls"),
    ("linalg.echelon.coords.s", "s", "linalg.echelon.coords", "s"),
    ("springercount.point_count_table.calls", "count", "springercount.point_count_table", "calls"),
    ("springercount.point_count_table.s", "s", "springercount.point_count_table", "s"),
    ("springercount.point_count_table.self_s", "s", "springercount.point_count_table", "self_s"),
    ("springercount.count_fiber_points.calls", "count", "springercount.count_fiber_points", "calls"),
    ("springercount.count_fiber_points.s", "s", "springercount.count_fiber_points", "s"),
    ("springercount.interpolate.calls", "count", "springercount.interpolate", "calls"),
    ("springercount.interpolate.s", "s", "springercount.interpolate", "s"),
    ("characters.kostka.calls", "count", "characters.kostka", "calls"),
    ("characters.kostka.s", "s", "characters.kostka", "s"),
    ("characters.kostka.tableaux", "count", "characters.kostka", "attr"),
    ("characters.dim_irrep.s", "s", "characters.dim_irrep", "s"),
    ("glmodules.irrep_plucker.calls", "count", "glmodules.irrep_plucker", "calls"),
    ("glmodules.irrep_plucker.s", "s", "glmodules.irrep_plucker", "s"),
    ("glmodules.irrep_plucker.self_s", "s", "glmodules.irrep_plucker", "self_s"),
    ("glmodules.irrep_plucker.dim", "count", "glmodules.irrep_plucker", "attr"),
    ("glmodules.tensor.s", "s", "glmodules.tensor", "s"),
    ("glmodules.tensor.dim", "count", "glmodules.tensor", "attr"),
    ("glmodules.highest_weight_vectors.s", "s", "glmodules.highest_weight_vectors", "s"),
    ("lattice.mv_cycle_count.s", "s", "lattice.mv_cycle_count", "s"),
    ("cli.main.s", "s", "cli.main", "s"),
    ("cli.self_s", "s", "cli.main", "self_s"),
)
DERIVED_UNITS = {
    "import_s": "s",
    "calib_s": "s",
    "wall_raw_s": "s",
    "probe_s": "s",
    "linalg.echelon.insert.grew_ratio": "1",
    "springercount.primes_useful_ratio": "1",
    "cli.stdout_bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "failed_ratio": "1",
}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def run_child(jobs, trace: bool, deadline: float):
    """Run one child; returns (report, None) or (None, reason)."""
    spec = json.dumps({"jobs": jobs, "trace": trace})
    cmd = [sys.executable, "-I", str(HERE / "child.py"), str(ROOT), spec]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {timeout:.0f} s"
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return None, f"child exited with code {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def run_reps(jobs, trace: bool, seconds: float, deadline: float) -> list:
    """Repeat the job list in fresh children for up to `seconds`.

    The list always runs once.  Another repetition starts only if, at the
    mean time of those so far, it ends within `seconds` and before the
    deadline.  Failed children are kept as (None, reason).
    """
    reps = []
    start = time.monotonic()
    while True:
        reps.append(run_child(jobs, trace, deadline))
        elapsed = time.monotonic() - start
        mean = elapsed / len(reps)
        if reps[-1][0] is None or elapsed + mean > seconds:
            return reps
        if time.monotonic() + mean > deadline:
            return reps


def import_samples(count: int, deadline: float) -> list[dict]:
    """Reports of `count` fresh children that import weylworks.cli only."""
    reports = []
    for _ in range(count):
        report, reason = run_child([], False, deadline)
        if report is None:
            raise RuntimeError(f"weylworks.cli does not import: {reason}")
        reports.append(report)
    return reports


def import_weylworks():
    sys.path.insert(0, str(ROOT / "src"))
    import weylworks

    if not Path(weylworks.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"weylworks imported from {weylworks.__file__}")
    return weylworks


def check_reps(workload, jobs, plain, traced) -> tuple[int, int, list[str]]:
    """Check every job of every repetition; returns (attempted, failed, notes)."""
    ww = import_weylworks()
    reference = json.loads(REFERENCE.read_text()) if not workload.seeded else {}
    attempted = failed = 0
    notes = []
    baseline = plain[0][0]["jobs"] if plain[0][0] is not None else None
    for kind, reps in (("untraced", plain), ("traced", traced)):
        for rep_no, (report, reason) in enumerate(reps):
            attempted += len(jobs)
            if report is None:
                failed += len(jobs)
                notes.append(f"{kind} repetition {rep_no}: {reason}")
                continue
            for job_no, (argv, out) in enumerate(zip(jobs, report["jobs"])):
                problems = checks.check_job(
                    argv, out["rc"], out["stdout"], ww, reference.get(" ".join(argv))
                )
                if kind == "traced" and (
                    baseline is None or out["stdout"] != baseline[job_no]["stdout"]
                ):
                    problems.append("traced stdout differs from untraced stdout")
                if problems:
                    failed += 1
                    notes.append(f"{kind} rep {rep_no} `{' '.join(argv)}`: {'; '.join(problems)}")
    return attempted, failed, notes


def layer_metrics(report) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    summary = spans.summarize(report["spans"])
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "attr": None, "attr_max": 0}
    values = {}
    for metric, _, name, field in SPAN_METRICS:
        value = summary.get(name, empty)[field]
        values[metric] = 0 if value is None else value
    insert = summary.get("linalg.echelon.insert", empty)
    values["linalg.echelon.insert.grew_ratio"] = (
        insert["attr"] / insert["calls"] if insert["calls"] else 0.0
    )
    useful, evaluated = summary.get("springercount.point_count_table", empty)["attr"] or (0, 0)
    values["springercount.primes_useful_ratio"] = useful / evaluated if evaluated else 0.0
    values["cli.stdout_bytes"] = sum(len(job["stdout"].encode("utf-8")) for job in report["jobs"])
    values["trace.wall_s"] = report["wall_s"]
    return values


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": f"{platform.system()} {platform.release()} {platform.machine()}",
        "commit": git_commit(),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    jobs = workload.jobs(seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    # The first import of a fresh checkout compiles byte code, which users
    # pay once, not per call; it is not counted.  Import samples are taken
    # before and after the job lists, so that one slow moment of a shared
    # machine does not set them all.
    import_samples(1, deadline)
    children = import_samples(SETUP_SAMPLES, deadline)
    plain = run_reps(jobs, False, seconds, deadline)
    traced = run_reps(jobs, True, seconds, deadline) if trace else []
    children += import_samples(SETUP_SAMPLES, deadline)
    ok_plain = [r for r, _ in plain if r is not None]
    ok_traced = [r for r, _ in traced if r is not None]
    children += ok_plain + ok_traced
    import_s = median([r["import_s"] for r in children])
    calib_s = median([r["calib_s"] for r in children])
    wall_raw_s = median([r["wall_s"] for r in ok_plain])
    probe_s = median([r["probe_s"] for r in ok_plain])
    wall_s = median([r["wall_s"] * PROBE_REF_S / r["probe_s"] for r in ok_plain])
    setup_s = median([r["import_s"] * CALIB_REF_S / r["calib_s"] for r in children])

    attempted, failed, notes = check_reps(workload, jobs, plain, traced)
    if trace:
        per_rep = [layer_metrics(r) for r in ok_traced]
        fired = {span[3] for r in ok_traced for span in r["spans"]}
        missing = [layer for layer in workload.layers if ok_traced and layer not in fired]
        if missing:
            notes.append(f"boundaries that never fired: {', '.join(missing)}")
        # median_low keeps an observed value, so counts stay whole numbers
        values = {k: statistics.median_low([v[k] for v in per_rep]) for k in per_rep[0]} if per_rep else {}
        values["import_s"] = import_s
        values["calib_s"] = calib_s
        values["wall_raw_s"] = wall_raw_s
        values["probe_s"] = probe_s
        # traced children take no speed probes, so both sides are unscaled
        values["trace.overhead_s"] = median([r["wall_s"] for r in ok_traced]) - wall_raw_s
        values["failed_ratio"] = failed / attempted
        units = {metric: unit for metric, unit, _, _ in SPAN_METRICS} | DERIVED_UNITS
        metrics = {k: {"value": values.get(k, 0), "unit": u} for k, u in units.items()}
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"spans-{name}-seed{seed}.json").write_text(
            json.dumps([r["spans"] for r in ok_traced])
        )
    else:
        missing = []
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": median([r["maxrss_kb"] / 1024 for r in ok_plain]),
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    for note in notes:
        print(f"perfbench: {note}", file=sys.stderr)
    info = {
        "workload": name,
        "seed": seed,
        "jobs": [" ".join(job) for job in jobs],
        "inputs": "seeded" if workload.seeded else "fixed shapes (their cost is the shape)",
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "wall_s": wall_s,
        "wall_raw_s": wall_raw_s,
        "probe_s": probe_s,
        "import_s": import_s,
        "calib_s": calib_s,
        "env": environment(),
    }
    print(json.dumps(info))
    return {
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(k: int, seconds: int, names: list[str]) -> dict:
    """Run each workload k times, alternating order; summarise the spread."""
    bounds = {}
    spec = ROOT / "BENCHMARK.json"
    if spec.exists():
        bounds = {m["name"]: m["bound"] for m in json.loads(spec.read_text())["end_to_end"]}
    results: dict[str, list] = {name: [] for name in names}
    for i in range(k):
        for name in names if i % 2 == 0 else names[::-1]:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(i), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_LIMIT_S + 30)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                raise RuntimeError(f"{name} seed {i} printed no result: {proc.stderr.strip()[-300:]}")
            result = json.loads(lines[-1])
            result["raw"] = json.loads(lines[-2])
            results[name].append(result)
            print(f"seed {i} {name}: " + json.dumps(result), file=sys.stderr)
    summary = {"env": environment(), "runs": k, "seconds": seconds, "workloads": {}}
    for name, runs in results.items():
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
        }
        # the unscaled times and the machine speeds they were scaled by
        series = {m: ([r["metrics"][m]["value"] for r in runs], u) for m, u in END_TO_END_UNITS.items()}
        series |= {
            m: ([r["raw"][m] for r in runs], "s")
            for m in ("import_s", "calib_s", "wall_raw_s", "probe_s")
        }
        for metric, (values, unit) in series.items():
            q1, q2, q3 = quartiles(values)
            entry[metric] = {
                "unit": unit, "median": q2, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / q2, "bound": bounds.get(metric), "values": values,
            }
            print(f"{name:16s} {metric:12s} median {q2:10.4f} {unit:3s} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {(q3 - q1) / q2:.4f} "
                  f"bound {bounds.get(metric)}")
        summary["workloads"][name] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", type=int, metavar="K",
                        help="steadiness mode: K runs of each workload (or of --workload)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "weylworks" / "cli.py").is_file():
        print(f"error: no weylworks sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None and not args.steady:
        parser.error("--workload is required")
    try:
        if args.steady:
            names = [args.workload] if args.workload else list(WORKLOADS)
            print(json.dumps(steady(args.steady, args.seconds, names)))
            return 0
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
