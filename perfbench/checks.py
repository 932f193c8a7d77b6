"""Output checks for benchmark jobs, run after the timed region.

``check_job`` returns the list of problems found in one job's result; an
empty list means the job passed.  Exact answers are recomputed with the
tableau route (``characters``), which every other route must agree with.
"""

from __future__ import annotations

import hashlib
import json


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def _false_matches(value, path="$"):
    """Paths of every ``match`` key that is not exactly true."""
    if isinstance(value, dict):
        for key, item in value.items():
            if key == "match" and item is not True:
                yield f"{path}.match"
            yield from _false_matches(item, f"{path}.{key}")
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _false_matches(item, f"{path}[{i}]")


def _check_crossval(payload, ww) -> list[str]:
    lam = tuple(payload["lambda"])
    n = payload["n"]
    conj = ww.weights.conjugate(lam)
    expected_mus = sorted(ww.weights.compositions(sum(lam), n))
    if sorted(tuple(row["mu"]) for row in payload["rows"]) != expected_mus:
        return ["crossval rows do not cover every composition mu"]
    problems = []
    for row in payload["rows"]:
        want = ww.characters.kostka(conj, row["mu"], size_guard=None)
        got = [row[key] for key in ("kostka", "skewhowe", "springer", "lattice_mv")]
        if got != [want] * 4:
            problems.append(f"crossval mu={row['mu']}: {got}, tableaux give {want}")
    return problems


def _check_irrep(payload, ww) -> list[str]:
    table = ww.characters.character_table(payload["lambda"], payload["n"], size_guard=None)
    want = [{"mu": list(mu), "multiplicity": m} for mu, m in table.sorted_entries()]
    problems = []
    if payload["weights"] != want:
        problems.append("irrep weight table differs from character_table")
    if payload["dim"] != table.dim():
        problems.append(f"irrep dim {payload['dim']} != {table.dim()}")
    return problems


def _check_decompose(payload, ww) -> list[str]:
    n = payload["n"]
    total = sum(
        entry["multiplicity"] * ww.characters.dim_irrep(entry["lambda"], n, size_guard=None)
        for entry in payload["multiplicities"]
    )
    if total != payload["dim"]:
        return [f"decompose multiplicities account for {total}, module has {payload['dim']}"]
    return []


_SEMANTIC = {
    "crossval": _check_crossval,
    "irrep": _check_irrep,
    "decompose": _check_decompose,
}


def check_job(argv, rc, stdout, ww, reference=None) -> list[str]:
    """Problems with one job's exit code and stdout.

    ``ww`` is the imported ``weylworks`` package; ``reference`` is the
    expected stdout digest, or None for jobs without a stored one.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as err:
        return [f"stdout is not JSON: {err}"]
    if not isinstance(payload, dict) or payload.get("schema_version") != 1:
        return ["schema_version is not 1"]
    problems = [f"{path} is not true" for path in _false_matches(payload)]
    semantic = _SEMANTIC.get(argv[0])
    if semantic is not None:
        try:
            problems += semantic(payload, ww)
        except (KeyError, TypeError, ValueError) as err:
            problems.append(f"malformed {argv[0]} payload: {err!r}")
    if reference is not None and digest(stdout) != reference:
        problems.append("stdout digest differs from the stored reference")
    return problems
