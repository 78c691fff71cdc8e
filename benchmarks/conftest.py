"""Shared machinery for the benchmark harness.

Each ``bench_*.py`` file regenerates one paper artefact (see DESIGN.md's
experiment index): it runs the experiment's ``quick`` preset under
pytest-benchmark (timing one full regeneration), prints the same
rows/series the paper reports, saves them as CSV under
``benchmarks/out/``, and asserts the experiment's shape verdicts — the
"who wins / by what factor / where's the crossover" checks — so that a
benchmark run doubles as a reproduction audit.

Every benchmark also emits a machine-readable
``benchmarks/out/BENCH_<name>.json`` via :func:`write_bench_json` —
speedup, baseline/optimised seconds, the size config and the git SHA —
so the perf trajectory across PRs lives in uploadable CI artefacts
instead of only in the job logs.  The experiment-regeneration benches
get theirs from the :func:`regenerate` fixture (elapsed seconds +
verdicts); the speedup benches call the helper with their measured
baseline/optimised split.

Run with:  ``pytest benchmarks/ --benchmark-only``
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path

import pytest

from repro.analysis.comparison import render_comparisons_markdown
from repro.backends import default_backend
from repro.experiments.registry import run_experiment
from repro.provenance import git_revision, record_artifact

OUT_DIR = Path(__file__).parent / "out"


def _git_sha(root: Path = Path(__file__).parent.parent) -> str | None:
    """Commit SHA of the checkout at ``root``, or None outside one.

    The SHA gets a ``+dirty`` suffix when tracked files under ``src/``
    or ``benchmarks/*.py`` differ from HEAD, so an artefact regenerated
    before its change is committed does not name the parent commit.
    ``benchmarks/out/`` is not consulted: every bench rewrites it.
    """
    sha = git_revision(root)
    if sha is None:
        return None
    diff = subprocess.run(
        ["git", "diff", "--quiet", "HEAD", "--"]
        + ["src", ":(glob)benchmarks/*.py"],
        cwd=root,
        capture_output=True,
        timeout=10,
    )
    # ``git diff --quiet`` exits 1 exactly when the paths differ.
    return sha + "+dirty" if diff.returncode == 1 else sha


def write_bench_json(
    name: str,
    *,
    speedup: float | None = None,
    baseline_seconds: float | None = None,
    optimised_seconds: float | None = None,
    config: dict | None = None,
    extra: dict | None = None,
) -> Path:
    """Write ``benchmarks/out/BENCH_<name>.json`` and return its path.

    One JSON document per benchmark: the headline ``speedup`` with
    its ``baseline_seconds``/``optimised_seconds`` split (None-valued
    fields are simply absent), the size ``config`` (R/n/k and friends),
    any benchmark-specific payload nested under ``extra`` (nested, not
    merged, so an extra key can never clobber a headline field), and
    the ``git_sha`` the numbers were measured at — everything a
    cross-PR perf tracker needs to plot a trajectory without parsing
    CI logs.  Every document also records the ``backend`` the run
    defaulted to (see :mod:`repro.backends`), so numpy-job and
    numba-job artefacts from the same commit stay distinguishable.
    """
    payload: dict = {
        "name": name,
        "git_sha": _git_sha(),
        "backend": default_backend().name,
    }
    if speedup is not None:
        payload["speedup"] = round(float(speedup), 3)
    if baseline_seconds is not None:
        payload["baseline_seconds"] = round(float(baseline_seconds), 6)
    if optimised_seconds is not None:
        payload["optimised_seconds"] = round(
            float(optimised_seconds), 6
        )
    if config:
        payload["config"] = dict(config)
    if extra:
        payload["extra"] = dict(extra)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    # Single choke point for benchmark provenance: every BENCH_*.json
    # is attested in benchmarks/out's hash chain (re-measuring a bench
    # appends a fresh manifest), so `repro verify benchmarks/out`
    # certifies the uploaded artefacts byte-for-byte.
    record_artifact(
        path,
        kind="bench",
        context={
            "name": name,
            "git_sha": payload["git_sha"],
            "backend": payload["backend"],
        },
    )
    return path


@pytest.fixture
def regenerate(benchmark):
    """Run one experiment under the benchmark timer and audit its shape.

    Returns the :class:`~repro.experiments.base.ExperimentResult`.  The
    shape audit fails the benchmark only on hard ``mismatch`` verdicts;
    ``partial`` verdicts (expected at quick-preset sizes where polylog
    factors are fat) are reported but tolerated.  Every regeneration
    also lands a ``BENCH_<experiment_id>.json`` (elapsed seconds,
    preset, verdict summary) next to the CSV.
    """

    def _run(experiment_id: str, preset: str = "quick", seed: int = 0):
        started = time.perf_counter()
        result = benchmark.pedantic(
            run_experiment,
            args=(experiment_id,),
            kwargs={"preset": preset, "seed": seed},
            rounds=1,
            iterations=1,
        )
        elapsed = time.perf_counter() - started
        print()
        print(result.table())
        if result.comparisons:
            print(render_comparisons_markdown(result.comparisons))
        result.save_csv(OUT_DIR)
        write_bench_json(
            experiment_id,
            optimised_seconds=elapsed,
            config={"preset": preset, "seed": seed},
            extra={
                "verdicts": [
                    c.verdict for c in result.comparisons
                ],
            },
        )
        mismatches = [
            c for c in result.comparisons if c.verdict == "mismatch"
        ]
        assert not mismatches, (
            "shape checks failed:\n"
            + "\n".join(f"- {c.claim}: {c.measured}" for c in mismatches)
        )
        return result

    return _run
