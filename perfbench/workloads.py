"""The benchmark's workloads: job lists built from a seed.

A job is one ``weylworks`` command line.  Jobs of a workload run one
after another in one process (a closed loop with one client).  Only
``springer-flags`` uses the seed; the other workloads are fixed shapes,
because their cost is the shape, and their stdout is compared with a
stored digest.  Why each workload was chosen is recorded in
``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# The partitions of 12 with 3 to 6 parts, in 12 strata of nearly equal
# cost: a springer job with full flags (mu = 1^12) for any nu of one
# stratum took the same time within 8% when the benchmark was written
# (Python 3.11.7 on 2 shared cores; job times 0.24 s to 0.97 s).  One nu
# is drawn from each stratum, so a seed changes the inputs but not the
# amount of work; twelve nu drawn freely made the job list's time vary
# by 10-25% from seed to seed.
SPRINGER_STRATA = (
    ((10, 1, 1),),
    ((4, 4, 4), (5, 4, 3)),
    ((9, 1, 1, 1), (3, 3, 3, 3), (7, 1, 1, 1, 1, 1), (8, 1, 1, 1, 1), (6, 3, 3)),
    ((6, 5, 1), (4, 4, 2, 2), (4, 4, 3, 1), (4, 3, 3, 2)),
    ((5, 5, 2), (6, 2, 2, 2), (6, 4, 2), (3, 3, 3, 2, 1), (5, 3, 2, 2), (7, 4, 1)),
    ((4, 2, 2, 2, 2), (5, 3, 3, 1), (5, 2, 2, 2, 1), (4, 3, 2, 2, 1),
     (3, 3, 2, 2, 2), (4, 4, 1, 1, 1, 1), (8, 2, 2), (4, 3, 3, 1, 1),
     (3, 3, 3, 1, 1, 1), (5, 4, 1, 1, 1), (4, 4, 2, 1, 1), (5, 3, 1, 1, 1, 1)),
    ((5, 5, 1, 1), (4, 3, 2, 1, 1, 1), (4, 2, 2, 2, 1, 1), (9, 2, 1),
     (3, 3, 2, 2, 1, 1), (5, 2, 2, 1, 1, 1)),
    ((6, 4, 1, 1), (5, 4, 2, 1), (7, 3, 2), (8, 3, 1), (6, 2, 1, 1, 1, 1),
     (6, 3, 1, 1, 1)),
    ((7, 2, 1, 1, 1), (5, 3, 2, 1, 1), (8, 2, 1, 1), (3, 2, 2, 2, 2, 1)),
    ((6, 2, 2, 1, 1), (7, 3, 1, 1), (7, 2, 2, 1)),
    ((6, 3, 2, 1),),
    ((2, 2, 2, 2, 2, 2),),
)

_CROSSVAL_LAYERS = (
    "cli.main",
    "skewhowe.build_bimodule",
    "skewhowe.hom_space",
    "linalg.kernel",
    "springercount.point_count_table",
    "springercount.count_fiber_points",
    "springercount.interpolate",
    "characters.kostka",
    "lattice.mv_cycle_count",
)


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


@dataclass(frozen=True)
class Workload:
    name: str
    # Boundaries that must fire in a traced run; one that never fires
    # fails the run, so a moved function cannot silently report 0 s.
    layers: tuple[str, ...]
    fixed_jobs: tuple[tuple[str, ...], ...] = ()

    @property
    def seeded(self) -> bool:
        return not self.fixed_jobs

    def jobs(self, seed: int) -> list[list[str]]:
        if self.fixed_jobs:
            return [list(job) for job in self.fixed_jobs]
        rng = random.Random(seed)
        return [
            ["springer", "--nu", _ints(rng.choice(stratum)), "--mu", _ints([1] * 12),
             "-n", "12"]
            for stratum in SPRINGER_STRATA
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "crossval-wedge",
            _CROSSVAL_LAYERS,
            (("crossval", "--lambda", "2,2,1,1", "-n", "5", "-m", "5"),),
        ),
        Workload(
            "crossval-kernel",
            _CROSSVAL_LAYERS,
            (("crossval", "--lambda", "1,1,1,1,1", "-n", "5", "-m", "5"),),
        ),
        Workload(
            "springer-flags",
            (
                "cli.main",
                "springercount.point_count_table",
                "springercount.count_fiber_points",
                "springercount.interpolate",
                "characters.kostka",
            ),
        ),
        Workload(
            "modules",
            (
                "cli.main",
                "glmodules.irrep_plucker",
                "glmodules.tensor",
                "linalg.echelon.insert",
                "linalg.echelon.coords",
                "glmodules.highest_weight_vectors",
                "linalg.kernel",
                "characters.dim_irrep",
            ),
            (
                ("irrep", "--lambda", "5,3,1,1,0", "-n", "5"),
                ("irrep", "--lambda", "4,3,2,1,0", "-n", "5"),
                ("decompose", "--module", "tensor(adjoint,adjoint)", "-n", "6"),
            ),
        ),
    )
}
