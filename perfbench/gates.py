"""Correctness gates: each returns a list of failure messages (empty = pass).

The benchmark counts an operation as failed when any gate on its output
fails; ``selftest.py`` plants a bad output for each gate and checks that
it fires.
"""

from __future__ import annotations

import hashlib
import json
import math


def digest(document) -> str:
    """SHA-256 of a canonical JSON rendering of ``document``."""
    text = json.dumps(document, sort_keys=True, default=float)
    return hashlib.sha256(text.encode()).hexdigest()


def verdict_failures(result) -> list[str]:
    """Every paper verdict of an ``ExperimentResult`` must be ``match``."""
    if not result.comparisons:
        return [f"{result.experiment_id}: no verdicts recorded"]
    return [
        f"{record.experiment_id}: verdict {record.verdict!r} for "
        f"{record.claim!r} ({record.measured})"
        for record in result.comparisons
        if record.verdict != "match"
    ]


def sweep_point_failures(points) -> list[str]:
    """No sweep point may carry an error or a censored run."""
    failures = []
    for point in points:
        if point.error is not None:
            failures.append(f"point {point.params}: error {point.error}")
        elif not point.values or point.censored:
            failures.append(
                f"point {point.params}: {point.censored} of "
                f"{len(point.values)} runs censored"
            )
    return failures


def jsonable_values(values) -> list:
    """Point values as a service result document carries them."""
    return [None if math.isnan(v) else float(v) for v in values]


def job_value_failures(job_index: int, result: dict, reference: list) -> list[str]:
    """A job's served values must equal the reference, byte for byte.

    ``reference`` holds the per-point value lists of a direct
    ``run_sweep`` of the same ``JobSpec`` (for the warm workload, the
    values that filled the cache).
    """
    points = result.get("points") or []
    served = [point.get("values") for point in points]
    failures = [
        f"job {job_index}: point {point.get('params')} error {point['error']}"
        for point in points
        if point.get("error")
    ]
    if json.dumps(served) != json.dumps(reference):
        failures.append(
            f"job {job_index}: served values {served} differ from the "
            f"reference {reference}"
        )
    return failures


def chain_failures(directory) -> list[str]:
    """The provenance chain of a cache directory must replay clean."""
    from repro.provenance import verify_chain

    report = verify_chain(directory)
    return [] if report.ok else [f"provenance: {report.first_broken}"]


def determinism_failures(digests: list[str]) -> list[str]:
    """Passes over the same inputs must produce identical outputs."""
    if len(set(digests)) <= 1:
        return []
    return [f"outputs differ between passes with one seed: {sorted(set(digests))}"]
