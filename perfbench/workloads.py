"""The benchmark's four workloads.

Each workload builds its inputs from the seed alone, ``setup()`` does
the untimed preparation, and ``run_pass()`` performs one timed pass over
the same inputs and returns a :class:`PassResult` with its gate
failures.  Every call into the repo goes through a module attribute
(``self._registry.run_experiment``, never a name bound at import), so
the tracer's wraps see it.
"""

from __future__ import annotations

import math
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gates
import hostspeed

#: Client threads of the service load generator, and service workers.
#: Both stay within the 2 cores the baseline was measured on.
NUM_CLIENTS = 2
NUM_WORKERS = 2


@dataclass
class PassResult:
    """One timed pass: its wall time, per-operation latencies, gates."""

    wall_s: float
    latencies: list[float]
    failed: int
    replica_rounds: float
    digest: str
    failures: list[str] = field(default_factory=list)
    chain_len: int = 0
    #: The host's slowdown around this pass (``hostspeed``); 1 when the
    #: workload has no reference loop.
    slowdown: float = 1.0


class Thm11Paper:
    """``repro run thm11 --preset paper``: one operation is one run.

    Smaller presets do not reliably reproduce the verdicts, so the tiny
    size runs the paper preset too.
    """

    name = "thm11-paper"
    preset = "paper"
    speed_reference = hostspeed.SMALL_ARRAYS

    def __init__(self, seed: int, size: str, scratch: Path) -> None:
        self.seed = seed
        self.setup_failures: list[str] = []

    def setup(self) -> None:
        from repro.experiments import registry, thm11

        self._registry = registry
        self._num_runs = thm11.PRESETS[self.preset]["num_runs"]
        # Warm-up at the smallest preset: lazy imports and first-call
        # costs land here, not in the first timed pass.
        registry.run_experiment("thm11", preset="micro", seed=self.seed)

    def run_pass(self) -> PassResult:
        started = time.perf_counter()
        result = self._registry.run_experiment(
            "thm11", preset=self.preset, seed=self.seed
        )
        wall = time.perf_counter() - started
        failures = gates.verdict_failures(result)
        # The experiment reports the median stopping round per grid
        # point; median x replicas is its replica-round count.
        rounds = sum(
            row[2] * self._num_runs
            for row in result.rows
            if isinstance(row[2], float) and math.isfinite(row[2])
        )
        return PassResult(
            wall_s=wall,
            latencies=[wall],
            failed=1 if failures else 0,
            replica_rounds=rounds,
            digest=gates.digest(
                {
                    "rows": result.rows,
                    "verdicts": [c.verdict for c in result.comparisons],
                }
            ),
            failures=failures,
        )

    def teardown(self) -> None:
        pass


class SweepHMajority:
    """``run_sweep`` without a cache over two h-Majority points.

    One operation is both sweeps: 5-majority at n=65,536 and 7-majority
    at n=16,384, k=16, 8 runs per point, from a balanced start.
    """

    name = "sweep-hmajority"
    speed_reference = None
    K = 16
    RUNS = 8
    POINTS = {
        "full": (("5-majority", 65536), ("7-majority", 16384)),
        "tiny": (("5-majority", 2048), ("7-majority", 1024)),
    }

    def __init__(self, seed: int, size: str, scratch: Path) -> None:
        self.seed = seed
        self.points = self.POINTS[size]
        self.setup_failures: list[str] = []

    def setup(self) -> None:
        import repro.sweep as sweep

        self._sweep = sweep
        for dynamics, _ in self.points:
            self._run(dynamics, 256)

    def _run(self, dynamics: str, n: int):
        return self._sweep.run_sweep(
            self._sweep.SweepSpec(
                grid={"n": [n]},
                fixed={"dynamics": dynamics, "k": self.K},
                num_runs=self.RUNS,
                seed=self.seed,
            )
        )

    def run_pass(self) -> PassResult:
        started = time.perf_counter()
        points = [
            point
            for dynamics, n in self.points
            for point in self._run(dynamics, n)
        ]
        wall = time.perf_counter() - started
        failures = gates.sweep_point_failures(points)
        values = [gates.jsonable_values(point.values) for point in points]
        return PassResult(
            wall_s=wall,
            latencies=[wall],
            failed=1 if failures else 0,
            replica_rounds=sum(
                v for point in points for v in point.values
                if math.isfinite(v)
            ),
            digest=gates.digest(values),
            failures=failures,
        )

    def teardown(self) -> None:
        pass


def job_stream(seed: int, count: int) -> list[dict]:
    """``count`` distinct 2-point 3-majority job specs from ``seed``.

    Sweep cache keys hold the point parameters but not the seed, so
    every job draws its own two population sizes: no two jobs share a
    cache entry, and a cold pass measures every point.
    """
    rng = random.Random(f"perfbench-service:{seed}")
    sizes = rng.sample(range(512, 4097), 2 * count)
    return [
        {
            "grid": {"n": sorted(sizes[2 * i : 2 * i + 2])},
            "fixed": {"dynamics": "3-majority", "k": 8},
            "num_runs": 8,
            "seed": seed,
        }
        for i in range(count)
    ]


class ServiceLoop:
    """A closed loop of clients against ``SimulationService``.

    Each client submits a job, waits for its result, then submits the
    next.  One pass sends the whole job stream through its own service
    on a fresh job database.  Cold passes also start from an empty
    cache; warm passes read the cache that ``setup()`` filled.  The
    service for the next pass is started before it, untimed: by
    ``setup()`` for the first pass, by the previous pass after that.
    """

    JOBS = {"full": 100, "tiny": 6}
    WAIT_TIMEOUT_S = 30.0
    speed_reference = None

    def __init__(
        self, seed: int, size: str, scratch: Path, *, warm: bool
    ) -> None:
        self.name = "service-warm" if warm else "service-cold"
        self.seed = seed
        self.warm = warm
        self.jobs = job_stream(seed, self.JOBS[size])
        self.scratch = scratch
        self.setup_failures: list[str] = []
        self._workdir: Path | None = None
        self._next = None

    def setup(self) -> None:
        import repro.service as service
        import repro.sweep as sweep

        self._service = service
        self._workdir = Path(
            tempfile.mkdtemp(prefix=f"{self.name}-", dir=self.scratch)
        )
        # The reference values come from a direct run_sweep of each
        # JobSpec.  For the warm workload the same run fills the cache
        # the service will read.
        self.cache = self._workdir / "cache" if self.warm else None
        self.reference = []
        for spec in self.jobs:
            points = sweep.run_sweep(
                service.JobSpec.from_mapping(spec).to_sweep_spec(),
                cache_dir=self.cache,
                measure="batch",
            )
            self.reference.append(
                [gates.jsonable_values(point.values) for point in points]
            )
        if self.warm:
            self.setup_failures = gates.chain_failures(self.cache)
            self._filled_chain = _chain_len(self.cache)
        self._next = self._start_service()

    def _start_service(self):
        passdir = Path(tempfile.mkdtemp(prefix="pass-", dir=self._workdir))
        cache = self.cache if self.warm else passdir / "cache"
        service = self._service.SimulationService(
            passdir / "jobs.db", cache_dir=cache, num_workers=NUM_WORKERS
        )
        return passdir, cache, service.start()

    def run_pass(self) -> PassResult:
        passdir, cache, service = self._next
        self._next = None
        count = len(self.jobs)
        latencies = [0.0] * count
        results: list[dict | None] = [None] * count
        errors: list[str | None] = [None] * count
        try:
            def client_loop(index: int) -> None:
                client = self._service.ServiceClient(
                    service.url, client_id=f"perfbench-{index}"
                )
                for job in range(index, count, NUM_CLIENTS):
                    started = time.perf_counter()
                    try:
                        job_id = client.submit(self.jobs[job])
                        results[job] = client.wait(
                            job_id, timeout=self.WAIT_TIMEOUT_S
                        )
                    except Exception as exc:  # counted as a failed job
                        errors[job] = f"{type(exc).__name__}: {exc}"
                    latencies[job] = time.perf_counter() - started

            threads = [
                threading.Thread(target=client_loop, args=(index,))
                for index in range(NUM_CLIENTS)
            ]
            started = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - started
        finally:
            service.shutdown()
        failures = []
        failed_jobs = 0
        for job in range(count):
            job_failures = (
                [f"job {job}: {errors[job]}"]
                if errors[job] is not None
                else gates.job_value_failures(
                    job, results[job], self.reference[job]
                )
            )
            failed_jobs += bool(job_failures)
            failures.extend(job_failures)
        # A broken chain or a cache that re-measured fails the whole
        # pass: none of its jobs can be trusted.
        pass_failures = gates.chain_failures(cache)
        chain_len = _chain_len(cache)
        if self.warm and chain_len != self._filled_chain:
            pass_failures.append(
                f"warm pass wrote {chain_len - self._filled_chain} "
                "provenance manifests; the cache should have served "
                "every point"
            )
        failures.extend(pass_failures)
        shutil.rmtree(passdir, ignore_errors=True)
        self._next = self._start_service()
        served = [
            None
            if result is None
            else [point["values"] for point in result["points"]]
            for result in results
        ]
        return PassResult(
            wall_s=wall,
            latencies=latencies,
            failed=count if pass_failures else failed_jobs,
            replica_rounds=sum(
                v
                for values in served
                if values
                for point in values
                for v in point
                if v is not None
            ),
            digest=gates.digest(served),
            failures=failures,
            chain_len=chain_len,
        )

    def teardown(self) -> None:
        if self._next is not None:
            self._next[2].shutdown()
        if self._workdir is not None:
            shutil.rmtree(self._workdir, ignore_errors=True)


def _chain_len(cache: Path) -> int:
    chain = cache / "provenance"
    return sum(1 for _ in chain.glob("manifest-*.json")) if chain.is_dir() else 0


WORKLOADS = {
    "thm11-paper": Thm11Paper,
    "sweep-hmajority": SweepHMajority,
    "service-cold": lambda seed, size, scratch: ServiceLoop(
        seed, size, scratch, warm=False
    ),
    "service-warm": lambda seed, size, scratch: ServiceLoop(
        seed, size, scratch, warm=True
    ),
}
