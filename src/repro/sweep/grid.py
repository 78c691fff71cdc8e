"""Parameter-grid sweeps with on-disk caching and resume.

The experiment modules cover the paper's artefacts; this driver is for
*ad-hoc* exploration — "consensus time over this (n, k, dynamics) grid,
medians over m seeds, and don't redo points I already have".  It backs
the examples and gives downstream users a one-call sweep API:

>>> from repro.sweep import SweepSpec, run_sweep
>>> spec = SweepSpec(
...     grid={"n": [1024, 4096], "k": [4, 16, 64]},
...     num_runs=5,
... )
>>> table = run_sweep(spec, cache_dir="sweeps/my-study")   # doctest: +SKIP

Each grid point's ``num_runs`` replicas are measured in **one**
vectorised engine run — ``batch`` for population points,
``agent-batch`` for graph points, ``async-batch`` for asynchronous
points — by :func:`consensus_times_point_batch` (any picklable
``(params, num_runs, seed) -> values`` callable works), and cached as
one JSON file keyed by the point's parameters plus a versioned
measurement field, so interrupted sweeps resume for free.  The field
keeps cache files written by the retired one-engine-per-replica
measurement (keyed by the parameters alone) out of every read: such a
point is re-measured, never misread.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import threading
import time
from collections.abc import Callable, Mapping
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.adversary import near_consensus_target
from repro.backends import AUTO_BACKEND, resolve_backend
from repro.engine import get_engine
from repro.errors import (
    CacheIntegrityError,
    ConfigurationError,
    SweepPointError,
)
from repro.faults import fault_point
from repro.graphs import make_graph
from repro.provenance import canon_hash, git_revision, record_artifact
from repro.seeding import RandomState
from repro.simulation import SimulationSpec, execute

__all__ = [
    "SweepPoint",
    "SweepSpec",
    "consensus_times_point_batch",
    "run_sweep",
    "spec_from_params",
]

#: Point functions measure a whole grid point at once:
#: ``(params, num_runs, seed) -> per-replica values`` where ``seed`` is
#: declarative (an int tuple), so the callable stays picklable for the
#: worker pool.
BatchPointFunction = Callable[[Mapping, int, tuple], tuple]

#: The one measurement mode, as cache payloads and manifests record it;
#: its versioned form is part of every cache key.
_MEASURE = "batch"
_MEASURE_VERSION = f"{_MEASURE}/v1"

#: Chain families a grid point may name via its ``engine`` parameter,
#: mapped to the registered batch engine that measures the chain.
_BATCH_SIBLING = {
    "population": "batch",
    "agent": "agent-batch",
    "async": "async-batch",
}


@functools.lru_cache(maxsize=32)
def _cached_graph(name, n, degree, edge_probability, graph_seed):
    """Memoised substrate construction for sweep points.

    Every replica of a graph point (and every point sharing the
    substrate dimension) sees the *same* deterministic edge set, so
    rebuilding it per point would only burn generator time — at sweep
    sizes the networkx-backed samplers can rival the simulation itself.
    Keyed by the flat JSON-level parameters; each worker process keeps
    its own cache.
    """
    return make_graph(
        name,
        n,
        degree=degree,
        edge_probability=edge_probability,
        seed=graph_seed,
    )


def _point_engine(params: Mapping) -> str:
    """The registered batch engine that measures a point's chain.

    Graph points run the agent chain, ``engine`` names the chain family
    otherwise, and the default is the population chain.  Both the
    point's spec and its provenance manifest take the engine from here.
    """
    family = params.get("engine")
    if "graph" in params and params["graph"] != "complete":
        family = "agent"
    return _BATCH_SIBLING[family or "population"]


def spec_from_params(
    params: Mapping,
    *,
    replicas: int = 1,
    seed: RandomState = 0,
) -> SimulationSpec:
    """Build the validated spec that measures a flat grid-point dict.

    Recognised keys: ``dynamics`` (default ``"3-majority"``), ``n``,
    ``k``, ``initial`` (family name, default ``"balanced"``),
    ``initial_params`` (dict of family parameters), ``max_rounds``,
    ``engine`` (the chain family to measure — ``"population"``
    (default), ``"agent"`` or ``"async"``; the one-vertex-per-tick
    [CMRSS25] chain becomes a grid dimension this way), ``adversary``
    (strategy name), ``adversary_budget`` (per-round F — a natural grid
    axis for tolerance sweeps), and the graph substrate dimension:
    ``graph`` (a :data:`repro.graphs.GRAPH_FAMILIES` name), ``degree``
    (random-regular — the grid axis of "consensus time vs. degree"
    studies), ``edge_probability`` (Erdős–Rényi) and ``graph_seed``
    (edge-set seed, default 0, kept separate from the run seeds so
    every replica of a point sees the *same* substrate), and
    ``backend`` (a compute backend name or ``"auto"``, default
    ``"auto"`` — sweeping it benchmarks backends against each other;
    since backends differ in realisation, not law, the key-bearing
    params dict keeps backend points cached separately).  All of them
    are JSON-serialisable, so a point's spec is derivable from its
    cache entry and — crucially for the point cache — points with
    different substrates, chain families, strategies or budgets hash
    to different keys, because the full parameter dict is the cache
    key.  Validation happens here, eagerly, rather than deep inside a
    half-finished sweep.

    The spec runs the chain family's registered batch engine
    (``batch`` / ``agent-batch`` / ``async-batch``, see
    :func:`_point_engine`) with ``replicas`` rows and the declarative
    ``seed``.  Graph points run the agent-level chain.  Adversarial
    points with ``F >= 1`` stop at the near-consensus ``target`` on
    engines that support per-row targets: an F >= 1 adversary can
    stall strict consensus forever.  The *initial configuration* is a
    function of the params alone: the spec receives the explicit count
    vector that the family draws from the default spec seed, so random
    initial families like ``dirichlet`` start every replica, under
    every sweep seed, from the same configuration; the measurement
    ``seed`` only drives the chains.
    """
    family = params.get("engine")
    if family is not None and family not in _BATCH_SIBLING:
        raise ConfigurationError(
            f"sweep points name a chain family; engine must be one of "
            f"{sorted(_BATCH_SIBLING)}, got {family!r}"
        )
    graph = None
    if "graph" in params and params["graph"] != "complete":
        if family not in (None, "agent"):
            raise ConfigurationError(
                f"graph points run the agent chain, got engine={family!r}"
            )
        graph = _cached_graph(
            str(params["graph"]),
            int(params["n"]),
            int(params["degree"]) if "degree" in params else None,
            (
                float(params["edge_probability"])
                if "edge_probability" in params
                else None
            ),
            int(params.get("graph_seed", 0)),
        )
    engine = _point_engine(params)
    start = {
        "dynamics": params.get("dynamics", "3-majority"),
        "n": int(params["n"]),
        "k": int(params["k"]),
        "initial": params.get("initial", "balanced"),
        "initial_params": params.get("initial_params", {}),
    }
    budget = (
        int(params["adversary_budget"])
        if "adversary_budget" in params
        else None
    )
    target = None
    if (
        params.get("adversary") is not None
        and budget
        and get_engine(engine).supports_target
    ):
        target = near_consensus_target(start["n"], budget)
    return SimulationSpec(
        **start,
        # Drawn under the default spec seed, not the measurement seed.
        counts=SimulationSpec(**start).initial_counts(),
        engine=engine,
        graph=graph,
        replicas=int(replicas),
        seed=seed,
        max_rounds=(
            int(params["max_rounds"]) if "max_rounds" in params else None
        ),
        target=target,
        adversary=params.get("adversary"),
        adversary_budget=budget,
        backend=str(params.get("backend", AUTO_BACKEND)),
    )


def consensus_times_point_batch(
    params: Mapping, num_runs: int, seed: tuple
) -> tuple[float, ...]:
    """Default point function: a whole grid point at once.

    Measures all ``num_runs`` replicas of one grid point in one run of
    the point's batch engine (``batch`` for population points,
    ``agent-batch`` for graph points, ``async-batch`` for asynchronous
    points) and returns the per-replica stopping rounds the engine
    recorded per row (``ResultSet.consensus_times``; for
    ``async-batch`` that is the ``ceil(ticks / n)`` synchronous-
    equivalent convention, not the engine's floored
    ``consensus_rounds`` view) — NaN for censored rows, and for
    adversarial points the per-row near-consensus-``target`` stopping
    time on engines that support per-row targets (``batch`` /
    ``agent-batch``).  ``async-batch`` has no custom-target support, so
    adversarial async points measure strict consensus and a stalling
    adversary surfaces as a censored NaN.

    ``seed`` is declarative (an int tuple derived by
    :func:`run_sweep` from the sweep seed and the point key), so the
    function pickles cleanly into the worker pool.  All replicas share
    one stream.
    """
    spec = spec_from_params(params, replicas=int(num_runs), seed=seed)
    results = execute(spec)
    return tuple(float(value) for value in results.consensus_times)


@dataclass(frozen=True)
class SweepPoint:
    """One measured grid point: parameters plus per-seed values.

    ``error`` is non-None only when the point was measured under
    ``run_sweep(on_error="skip")`` and its measurement raised: the
    point then carries the failure message instead of values, so a
    partially failed sweep returns structured per-point errors rather
    than aborting (the service layer depends on this).
    """

    params: dict
    values: tuple[float, ...]
    error: str | None = None

    @property
    def failed(self) -> bool:
        """Whether this point's measurement raised instead of returning."""
        return self.error is not None

    @property
    def median(self) -> float:
        finite = [v for v in self.values if not np.isnan(v)]
        return float(np.median(finite)) if finite else float("nan")

    @property
    def censored(self) -> int:
        """Number of runs that exhausted their budget."""
        return sum(1 for v in self.values if np.isnan(v))


@dataclass
class SweepSpec:
    """A cartesian parameter grid and replication settings.

    ``grid`` maps parameter names to value lists; every combination is
    one point.  ``fixed`` parameters are merged into every point.
    """

    grid: dict[str, list]
    num_runs: int = 3
    seed: RandomState = 0
    fixed: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.grid:
            raise ConfigurationError("sweep grid must not be empty")
        if self.num_runs < 1:
            raise ConfigurationError("num_runs must be at least 1")
        overlap = set(self.grid) & set(self.fixed)
        if overlap:
            raise ConfigurationError(
                f"parameters {sorted(overlap)} appear in both grid "
                "and fixed"
            )

    def points(self) -> list[dict]:
        """All grid points in deterministic order."""
        names = sorted(self.grid)
        combos = itertools.product(*(self.grid[name] for name in names))
        return [
            {**self.fixed, **dict(zip(names, combo))} for combo in combos
        ]


def _point_key(params: Mapping) -> str:
    """Stable filename stem for a point's parameter dict.

    The key hashes the parameters plus a *versioned* measurement field.
    Files written by the retired one-engine-per-replica measurement are
    keyed by the parameters alone, so no sweep ever reads them: their
    values came from different streams, equal to these in distribution
    but not in realisation.  Such a point is re-measured under its
    versioned key.
    """
    canon_params = {str(k): params[k] for k in sorted(params)}
    canon_params["__measure__"] = _MEASURE_VERSION
    canon = json.dumps(canon_params, sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _measure_point_batch(
    batch_point_function: BatchPointFunction,
    params: Mapping,
    entropy: list[int],
    num_runs: int,
) -> tuple[float, ...]:
    """Evaluate one grid point in a single batched engine run.

    The point's entropy doubles as the declarative spec seed (an int
    tuple), so points are reproducible and grid-independent.
    Module-level (not a closure) so that ``workers > 1`` can ship it to
    a worker process; ``batch_point_function`` must therefore be
    picklable — the default and any other module-level function is.
    """
    values = batch_point_function(
        params, num_runs, tuple(int(part) for part in entropy)
    )
    return tuple(float(value) for value in values)


def _stamp_point_manifest(
    cache_file: Path,
    params: Mapping,
    num_runs: int,
    entropy: list[int],
) -> None:
    """Append a provenance manifest for one freshly written point.

    The single choke point for sweep-cache provenance: every cache
    write — direct :func:`run_sweep` callers, the worker pool (cache
    files land in the parent process) and the service fleet (workers
    execute jobs through :func:`run_sweep`) — passes through
    :func:`_finish`, so stamping here covers them all.  The manifest
    ties the payload bytes to the spec (full canonical parameter dict,
    versioned measurement mode, replica count), the code revision, the
    backend, the engine family and the point's seed entropy; ``repro
    verify <cache_dir>`` replays the resulting chain.
    """
    canon_params = {str(key): params[key] for key in sorted(params)}
    record_artifact(
        cache_file,
        kind="sweep-point",
        context={
            "point_key": cache_file.stem,
            "spec_hash": canon_hash(
                {
                    "params": canon_params,
                    "measure": _MEASURE_VERSION,
                    "num_runs": int(num_runs),
                }
            ),
            "git_sha": git_revision(),
            "backend": resolve_backend(
                str(params.get("backend", AUTO_BACKEND))
            ).name,
            "engine": _point_engine(params),
            "seed_entropy": [int(part) for part in entropy],
            "measure": _MEASURE,
        },
    )


#: Orphaned cache temp files older than this (seconds) are swept at
#: cache open.  Generous on purpose: a *live* writer publishes within
#: milliseconds of creating its temp file, so anything an hour old is
#: litter from a crashed process, not work in flight.
STALE_TMP_MAX_AGE = 3600.0


def _sweep_stale_tmp(cache: Path, *, max_age: float | None = None) -> int:
    """Delete orphaned ``.{name}.{pid}.{thread_id}.tmp`` litter.

    A process crashing between temp-write and ``os.replace`` (the
    window the ``sweep.cache-write`` fault point exercises) leaves its
    temp file behind forever — harmless to correctness (the dot prefix
    keeps it out of cache reads and provenance payload scans) but
    accumulating across crashes.  Files younger than ``max_age`` are
    left alone: they may belong to a concurrent writer racing toward
    its rename.
    """
    max_age = STALE_TMP_MAX_AGE if max_age is None else max_age
    now = time.time()
    removed = 0
    for tmp in cache.glob(".*.tmp"):
        try:
            if now - tmp.stat().st_mtime < max_age:
                continue
            tmp.unlink()
            removed += 1
        except OSError:
            # Lost a race with a concurrent sweeper or the file's own
            # writer completing its rename; either way it is gone.
            continue
    return removed


def _write_point_atomic(cache_file: Path, payload: dict) -> None:
    """Write a point's cache entry via temp-file + ``os.replace``.

    Two workers (or two service processes) resuming the same cache dir
    may race on one point; a plain ``write_text`` could interleave a
    torn JSON write that poisons the cache for every later resume.
    ``os.replace`` is atomic on POSIX and Windows within a filesystem,
    so readers only ever observe a complete document — last writer
    wins, and both writers produce the same values anyway because the
    point owns its seed stream.  The temp name carries the process and
    thread ids, so two threads of one process (the service's workers)
    never write into, or publish, each other's temp file.
    """
    tmp = cache_file.with_name(
        f".{cache_file.name}.{os.getpid()}.{threading.get_ident()}.tmp"
    )
    document = json.dumps(payload)
    tmp.write_text(document)
    # The crash/torn-write window the chaos suite drives: a "crash"
    # here leaves the temp file orphaned (stale-tmp hygiene cleans it
    # up), a "torn-write" publishes a truncated document to the final
    # path (the CacheIntegrityError / on_corrupt machinery heals it).
    fault_point(
        "sweep.cache-write", path=str(cache_file), payload=document
    )
    os.replace(tmp, cache_file)


def run_sweep(
    spec: SweepSpec,
    cache_dir: str | Path | None = None,
    workers: int | None = None,
    measure: str = _MEASURE,
    batch_point_function: BatchPointFunction | None = None,
    on_error: str = "raise",
    on_corrupt: str = "raise",
    progress: Callable[[int, int, SweepPoint], None] | None = None,
) -> list[SweepPoint]:
    """Measure every grid point, loading cached points where present.

    Each uncached point is measured by one
    ``batch_point_function(params, spec.num_runs, seed)`` call (default
    :func:`consensus_times_point_batch`).  Seeds are derived per point
    from ``(spec.seed entropy, point key)`` as a declarative int tuple,
    so a point's result is independent of the rest of the grid — adding
    grid values later never changes previously measured points.
    ``measure`` names the measurement mode; ``"batch"`` is the only one.

    ``on_error`` controls what a failing point does to the sweep:
    ``"raise"`` (default) finishes and caches every other point, then
    raises :class:`~repro.errors.SweepPointError` naming the offending
    point's parameter dict (the original exception is chained);
    ``"skip"`` records the failure on the returned
    :class:`SweepPoint` (``error`` set, no values, never cached) and
    keeps going — the long-running service layer measures jobs this
    way so one broken point cannot abort a whole submission.

    ``on_corrupt`` controls what an *undecodable cached file* does:
    ``"raise"`` (default) raises the typed
    :class:`~repro.errors.CacheIntegrityError` naming the file —
    right for interactive use, where silent data loss should be a
    human decision; ``"remeasure"`` deletes the corrupt file and
    re-measures the point as if it were never cached — right for the
    service fleet, where a torn write from a crashed process must not
    brick the job on every subsequent retry.

    ``progress`` (when given) is called as ``progress(done, total,
    point)`` after each point lands — including points served from the
    cache — so job-sized sweeps can report per-point progress and
    heartbeats to an external store.  Exceptions from the callback
    propagate; keep it cheap and non-raising.

    ``workers`` (when > 1) evaluates uncached points process-parallel
    with :class:`concurrent.futures.ProcessPoolExecutor`; results and
    cache files are identical to an in-process run because every point
    owns its seed stream.  Completed points are consumed as they finish
    (``as_completed``), so one slow point never delays the cache writes
    of the points behind it and an interrupted or partially failed
    parallel sweep keeps every finished point; the returned list stays
    in deterministic grid order via the recorded indices.  The point
    function must be picklable (module-level) in that case.
    """
    if workers is not None and workers < 1:
        raise ConfigurationError(
            f"workers must be a positive count, got {workers}"
        )
    if on_error not in ("raise", "skip"):
        raise ConfigurationError(
            f"on_error must be 'raise' or 'skip', got {on_error!r}"
        )
    if on_corrupt not in ("raise", "remeasure"):
        raise ConfigurationError(
            f"on_corrupt must be 'raise' or 'remeasure', "
            f"got {on_corrupt!r}"
        )
    if measure != _MEASURE:
        raise ConfigurationError(
            f"measure must be {_MEASURE!r} (sweep points are measured "
            f"by the batch engines only), got {measure!r}"
        )
    if batch_point_function is None:
        # Looked up per call rather than bound as the default, so a
        # wrap installed on the module attribute (a profiler, the
        # benchmark tracer) sees every point measured.
        batch_point_function = consensus_times_point_batch
    cache = Path(cache_dir) if cache_dir is not None else None
    if cache is not None:
        cache.mkdir(parents=True, exist_ok=True)
        _sweep_stale_tmp(cache)
    base_entropy = _seed_entropy(spec.seed)

    all_points = spec.points()
    total = len(all_points)
    done = 0

    def _advance(point: SweepPoint) -> None:
        nonlocal done
        done += 1
        if progress is not None:
            progress(done, total, point)

    results: list[SweepPoint | None] = []
    pending: list[tuple[int, dict, Path | None, list[int]]] = []
    for params in all_points:
        key = _point_key(params)
        cache_file = cache / f"{key}.json" if cache is not None else None
        if cache_file is not None and cache_file.exists():
            # A cached point must decode cleanly before its values are
            # trusted: a truncated or corrupted file (crashed writer on
            # a pre-atomic-write cache, disk fault, manual edit) raises
            # a typed error naming the file instead of surfacing a raw
            # JSON traceback deep inside a long sweep.
            try:
                payload = json.loads(cache_file.read_text())
                point = SweepPoint(
                    params=payload["params"],
                    values=tuple(payload["values"]),
                )
            except (ValueError, KeyError, TypeError) as exc:
                if on_corrupt == "remeasure":
                    # Torn write from a crashed process: discard the
                    # poisoned file and measure the point afresh — its
                    # seed stream guarantees identical values, and the
                    # rewrite re-stamps its provenance manifest.
                    try:
                        cache_file.unlink()
                    except OSError:
                        pass
                else:
                    raise CacheIntegrityError(cache_file, exc) from exc
            else:
                results.append(point)
                _advance(point)
                continue
        entropy = base_entropy + [int(key[:12], 16)]
        results.append(None)
        pending.append((len(results) - 1, dict(params), cache_file, entropy))

    def _finish(entry, values) -> None:
        # Cache files are written per point, as soon as its values are
        # in hand, so an interrupted sweep keeps every finished point.
        # Writes go through temp-then-replace: concurrent resumers of
        # one cache dir can never observe a torn JSON document.
        index, params, cache_file, entropy = entry
        point = SweepPoint(params=params, values=values)
        if cache_file is not None:
            _write_point_atomic(
                cache_file,
                {
                    "params": point.params,
                    "values": list(values),
                    "measure": _MEASURE,
                },
            )
            _stamp_point_manifest(
                cache_file, params, spec.num_runs, entropy
            )
        results[index] = point
        _advance(point)

    def _finish_failed(entry, exc: Exception) -> None:
        # A skipped failure is recorded on the point, never cached —
        # a later resume retries it instead of replaying the error.
        index, params, _, _ = entry
        point = SweepPoint(
            params=params,
            values=(),
            error=f"{type(exc).__name__}: {exc}",
        )
        results[index] = point
        _advance(point)

    if workers is not None and workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            future_entries = {}
            for entry in pending:
                _, params, _, entropy = entry
                future = pool.submit(
                    _measure_point_batch,
                    batch_point_function,
                    params,
                    entropy,
                    spec.num_runs,
                )
                future_entries[future] = entry
            # Consume in completion order so a slow point never blocks
            # the cache writes of finished ones; if a point fails, the
            # rest still land in the cache before the error surfaces.
            # Only Exception is collected — KeyboardInterrupt and
            # friends must abort the sweep immediately.
            first_error: SweepPointError | None = None
            for future in as_completed(future_entries):
                entry = future_entries[future]
                try:
                    values = future.result()
                except Exception as exc:
                    if on_error == "skip":
                        _finish_failed(entry, exc)
                    elif first_error is None:
                        first_error = SweepPointError(entry[1], exc)
                        first_error.__cause__ = exc
                    continue
                _finish(entry, values)
            if first_error is not None:
                raise first_error
    else:
        for entry in pending:
            _, params, _, entropy = entry
            try:
                values = _measure_point_batch(
                    batch_point_function, params, entropy, spec.num_runs
                )
            except Exception as exc:
                if on_error == "skip":
                    _finish_failed(entry, exc)
                    continue
                raise SweepPointError(params, exc) from exc
            _finish(entry, values)
    return results  # type: ignore[return-value]


def _seed_entropy(seed: RandomState) -> list[int]:
    """Canonical integer entropy of a sweep seed.

    Tuple seeds contribute *every* component in order — summing them
    (as an earlier revision did) collapsed e.g. ``(1, 2)`` and ``(2, 1)``
    into the same per-point stream.  Int seeds keep their historical
    single-entry entropy, so existing caches with int seeds still match
    their recorded values.
    """
    if seed is None:
        return [0]
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    if isinstance(seed, (tuple, list)) and all(
        isinstance(part, (int, np.integer)) for part in seed
    ):
        return [int(part) for part in seed]
    raise ConfigurationError(
        "sweep seeds must be ints or int tuples (cache keys must be "
        f"stable), got {type(seed).__name__}"
    )
