"""One benchmark child process: import ``weylworks.cli``, run a job list.

    python3 -I perfbench/child.py ROOT SPEC

ROOT is the checkout whose ``src/`` is imported; SPEC is a JSON object
``{"jobs": [argv, ...], "trace": bool}``.  Each job is one call of
``weylworks.cli.main(argv)`` in this process with stdout captured.  An
empty job list measures the import alone.

Prints one JSON object: ``import_s`` (time to import weylworks.cli),
``calib_s`` (time of the calibration loop, run right after the import),
``wall_s`` (the whole job list, import and speed probes excluded),
``probe_s`` (mean time of the speed probes taken while the jobs ran; see
``SpeedProbe``), ``maxrss_kb`` (peak resident size of this process after
the jobs), per job ``rc`` and ``stdout``, and with tracing the recorded
``spans``.  A traced child takes no speed probes: they would land inside
the spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

CALIBRATION_ROUNDS = 30_000
PROBE_ROUNDS = 3_000  # one speed probe: a tenth of the calibration loop
PROBE_EVERY_S = 0.25  # wall time between speed probes


def calibrate(rounds: int = CALIBRATION_ROUNDS) -> float:
    """Time of a fixed loop of the kind of work weylworks does (exact
    fractions, tuple-keyed dicts).  It tells how fast this machine runs
    at the moment; run.py scales setup_s and wall_s by it."""
    start = time.perf_counter()
    total = Fraction(0)
    counts: dict = {}
    for i in range(rounds):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + i
        total += Fraction(i % 7 + 1, i % 5 + 1)
    return time.perf_counter() - start


class SpeedProbe:
    """Times a short calibration loop at the start, every PROBE_EVERY_S
    seconds while the jobs run, and at the end.

    A shared machine runs the same work up to twice as fast or as slow
    from one minute to the next, and within a long job too, so one loop
    before the jobs does not tell how fast they ran.  The timer's SIGALRM
    handler runs the probe in the main thread between two bytecodes of
    the job; ``spent`` is the wall time the probes took, which the caller
    takes out of the job time.  The mean probe time, not the median, is
    the job's speed: a job's time sums its slow and its fast moments.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def probe(self, *_signal) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate(PROBE_ROUNDS))
        self.spent += time.perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self.probe()
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.probe()


def run_job(main, argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors exit with code 2
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed job, not a lost run
        traceback.print_exc()
        return -1


def main() -> int:
    root = os.path.abspath(sys.argv[1])
    spec = json.loads(sys.argv[2])
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    from weylworks import cli

    import_s = time.perf_counter() - start
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"error: weylworks imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    report = {"import_s": import_s, "calib_s": calibrate()}
    jobs = spec["jobs"]
    if not jobs:
        print(json.dumps(report))
        return 0

    entry = cli.main
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap(cli.main, "cli.main")

    outputs = []
    probes = SpeedProbe() if tracer is None else None
    start = time.perf_counter()
    with probes or contextlib.nullcontext():
        for job_id, argv in enumerate(jobs):
            if tracer is not None:
                tracer.job = job_id
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = run_job(entry, argv)
            outputs.append({"rc": rc, "stdout": buf.getvalue()})
    report["wall_s"] = time.perf_counter() - start - (probes.spent if probes else 0.0)
    report["probe_s"] = statistics.fmean(probes.samples) if probes else None
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["jobs"] = outputs
    if tracer is not None:
        tracer.uninstall()
        report["spans"] = tracer.spans
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
