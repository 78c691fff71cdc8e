"""Command-line interface: ``python -m repro`` / ``repro-experiments``.

Subcommands
-----------
``list``
    Show the experiment index (id, title, presets).
``run <id> [--preset P] [--seed N] [--csv DIR]``
    Run one experiment, print its paper-style table and the
    paper-vs-measured verdicts, optionally dumping CSV.
``all [--preset P] [--seed N] [--csv DIR]``
    Run every experiment in index order (the full reproduction sweep
    used to populate EXPERIMENTS.md).
``report [--preset P] [--seed N] [--output PATH]``
    Run every experiment and write the paper-vs-measured markdown
    report (the file shipped as EXPERIMENTS.md).
``simulate --dynamics D --n N --k K [--engine E] [--replicas R] [...]``
    Ad-hoc runs to consensus through the unified simulation API.  A
    single population run prints a per-round trajectory summary; with
    ``--replicas`` (or ``--engine batch``) it prints the aggregate
    consensus-time quantiles, censoring and winner histogram instead.
    ``--graph FAMILY [--degree D | --edge-probability P]`` runs on a
    sparse substrate: the graph-capable engines take over (``agent``,
    or the vectorised ``agent-batch`` when replicated).
    ``--adversary NAME --adversary-budget F`` attacks every run with an
    F-bounded adversary ([GL18] model); with ``F >= 1`` the stopping
    rule becomes the near-consensus threshold (leader holds all but 4F
    vertices, majority-floored — strict consensus is trivially
    blockable) on engines that support a custom target; engines without
    one (``async``) measure strict consensus and say so.
``sweep --n N [N...] --k K [K...] [--dynamics D [D...]] [...]``
    Cached consensus-time sweep over the (dynamics, n, k) grid, with
    optional process-parallel workers.  A point's replicas run in one
    vectorised engine (``batch``/``agent-batch``/``async-batch``);
    ``--chain async`` sweeps the one-vertex-per-tick [CMRSS25] chain
    instead of the synchronous one.  ``--graph random-regular
    --degree 4 8 16`` adds a graph-density grid axis (the "consensus
    time vs. degree" workload family); ``--adversary NAME
    --adversary-budget F [F...]`` adds the adversary to every point
    (several budgets form a tolerance-sweep grid axis).  Points cache
    under distinct keys per substrate, chain, strategy and budget;
    cache files left by the retired one-run-per-replica measurement
    are never read, so those points are re-measured.
``dynamics``
    List the registered dynamics specs.
``engines``
    List the registered simulation engines with their capabilities.
``backends``
    List the registered compute backends (availability, accelerated
    kernels, the auto-detected default).  ``simulate``/``sweep``/
    ``submit`` take ``--backend`` to pin one (sweeps accept several as
    a comparison grid axis); the default is fail-closed auto-detection
    overridable via the ``REPRO_BACKEND`` environment variable.
``serve --db PATH [--cache DIR] [--port P] [--fleet N] [...]``
    Run the simulation service: persistent SQLite job store, priority
    scheduler with per-client quotas, a worker fleet executing jobs
    through the sweep path into one shared result cache,
    and the submit/poll/result HTTP API.  Prints the bound URL (use
    ``--port 0`` for an ephemeral port) and serves until interrupted;
    orphaned ``running`` jobs from a previous process are re-queued at
    startup.
``submit --url URL --n N [N...] --k K [K...] [...] [--wait]``
    Submit the same grid the ``sweep`` subcommand would measure as a
    job against a running service; prints the job id (or, with
    ``--wait``, polls to completion and prints the result table).
``status --url URL JOB_ID``
    One job's lifecycle state, progress and retry accounting.
``result --url URL JOB_ID [--wait]``
    Result table of a finished job (``--wait`` polls first).
``jobs --url URL [--state S | --dead] [--client C] [--requeue ID ...]``
    List jobs on a running service, optionally filtered by state or
    client (``--dead`` is shorthand for ``--state dead``); with
    ``--requeue`` return the named dead jobs to the queue with a fresh
    retry budget instead of listing.
``chaos [--plan NAME | --plan-file PATH] [--seed N] [...]``
    Stand up a throwaway service, submit a deterministic batch of
    sweep jobs under the named seeded fault plan, and audit the chaos
    invariants: every job settles done/dead, dead jobs carry errors,
    no job is lost or duplicated, done results match a fault-free
    baseline byte-for-byte, and the sweep cache's provenance chain
    replays clean.  Exits non-zero on any violation; the same plan
    name + seed replays the same fault schedule anywhere.
``lint [PATH ...] [--select RULE ...] [--list]``
    Statically check the package source (default: the installed
    ``repro`` package) against the codebase invariants — RNG seeding
    discipline, vectorized batch contracts, registry completeness,
    optimize-safe raises, spec threading, store transactions — and
    exit non-zero on violations.  ``# repro: noqa[rule-name]``
    suppresses a line; see README "Codebase invariants".
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.adversary import (
    available_adversaries,
    near_consensus_target,
    near_consensus_threshold,
)
from repro.analysis.comparison import render_comparisons_markdown
from repro.backends import (
    AUTO_BACKEND,
    available_backends,
    backend_available,
    default_backend,
    get_backend,
)
from repro.core.registry import available_dynamics
from repro.engine.registry import available_engines, get_engine
from repro.errors import (
    BackendUnavailableError,
    ConfigurationError,
    GraphError,
)
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.faults import available_plans
from repro.graphs import GRAPH_FAMILIES, make_graph
from repro.service.jobs import JOB_STATES
from repro.simulation import INITIAL_FAMILIES

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for '3-Majority and 2-Choices with "
            "Many Opinions' (Shimizu & Shiraga, PODC 2025)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments")
    sub.add_parser("dynamics", help="list registered dynamics")
    sub.add_parser("engines", help="list registered simulation engines")
    sub.add_parser(
        "backends",
        help=(
            "list registered compute backends, availability and the "
            "auto-detected default"
        ),
    )

    lint_parser = sub.add_parser(
        "lint",
        help=(
            "statically check the package source against the codebase "
            "invariants (AST rules; exits non-zero on violations)"
        ),
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        help=(
            "files or directories to check (default: the installed "
            "repro package source)"
        ),
    )
    lint_parser.add_argument(
        "--select",
        nargs="+",
        metavar="RULE",
        default=None,
        help="run only the named rules (default: every registered rule)",
    )
    lint_parser.add_argument(
        "--list",
        action="store_true",
        dest="list_rules",
        help="list the registered rules and exit",
    )

    verify_parser = sub.add_parser(
        "verify",
        help=(
            "replay-verify the provenance chains of sweep caches / "
            "benchmark output directories (exits non-zero on any "
            "broken link, tampered payload or orphaned manifest)"
        ),
    )
    verify_parser.add_argument(
        "paths",
        nargs="+",
        help=(
            "directories whose manifest chains to verify (a file path "
            "verifies the directory containing it)"
        ),
    )

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment_id", choices=sorted(EXPERIMENTS))
    _add_common(run_parser)

    all_parser = sub.add_parser("all", help="run every experiment")
    _add_common(all_parser)

    report_parser = sub.add_parser(
        "report", help="run everything and write EXPERIMENTS.md"
    )
    _add_common(report_parser)
    report_parser.add_argument(
        "--output",
        default="EXPERIMENTS.md",
        help="markdown file to write (default EXPERIMENTS.md)",
    )

    sim_parser = sub.add_parser(
        "simulate", help="ad-hoc runs to consensus"
    )
    sim_parser.add_argument(
        "--dynamics", default="3-majority", help="dynamics spec"
    )
    sim_parser.add_argument("--n", type=int, required=True)
    sim_parser.add_argument("--k", type=int, required=True)
    sim_parser.add_argument(
        "--initial",
        "--config",
        dest="initial",
        default="balanced",
        choices=sorted(INITIAL_FAMILIES),
        help="initial configuration family (--config is an alias)",
    )
    sim_parser.add_argument(
        "--engine",
        default=None,
        choices=available_engines(),
        help=(
            "simulation engine (default population; with --graph the "
            "default becomes agent, or agent-batch when --replicas > 1)"
        ),
    )
    sim_parser.add_argument(
        "--graph",
        default=None,
        choices=sorted(GRAPH_FAMILIES),
        help=(
            "graph substrate family; picks a graph-capable engine "
            "(agent, or agent-batch with --replicas > 1) unless "
            "--engine names one explicitly"
        ),
    )
    sim_parser.add_argument(
        "--degree",
        type=int,
        default=None,
        help="vertex degree for --graph random-regular",
    )
    sim_parser.add_argument(
        "--edge-probability",
        type=float,
        default=None,
        help="edge probability for --graph erdos-renyi",
    )
    sim_parser.add_argument(
        "--graph-seed",
        type=int,
        default=0,
        help="edge-set seed for random graph families (default 0)",
    )
    sim_parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="independent runs; > 1 prints aggregate statistics",
    )
    sim_parser.add_argument(
        "--adversary",
        default=None,
        choices=available_adversaries(),
        help="F-bounded adversary strategy applied after every round",
    )
    sim_parser.add_argument(
        "--adversary-budget",
        type=int,
        default=None,
        metavar="F",
        help="vertices the adversary may move per round",
    )
    sim_parser.add_argument("--seed", type=int, default=0)
    sim_parser.add_argument(
        "--max-rounds", type=int, default=1_000_000
    )
    sim_parser.add_argument(
        "--backend",
        default=AUTO_BACKEND,
        choices=(AUTO_BACKEND, *available_backends()),
        help=(
            "compute backend for the hot-path kernels (default auto: "
            "REPRO_BACKEND env var, else fail-closed auto-detection)"
        ),
    )

    sweep_parser = sub.add_parser(
        "sweep",
        help=(
            "cached consensus-time sweep over a parameter grid; each "
            "point's replicas run in one batch-engine run"
        ),
    )
    _add_sweep_axes(sweep_parser)
    sweep_parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="cache directory (measured points are reused on resume)",
    )
    sweep_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-parallel point evaluation (default in-process)",
    )

    serve_parser = sub.add_parser(
        "serve", help="run the simulation service (job queue + HTTP API)"
    )
    serve_parser.add_argument(
        "--db",
        default="service-jobs.db",
        metavar="PATH",
        help="SQLite job-store path (default service-jobs.db)",
    )
    serve_parser.add_argument(
        "--cache",
        default="service-cache",
        metavar="DIR",
        help="shared sweep result cache directory (default service-cache)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8642,
        help="HTTP port (0 binds an ephemeral port; default 8642)",
    )
    serve_parser.add_argument(
        "--fleet",
        type=int,
        default=2,
        help="worker threads executing jobs (default 2)",
    )
    serve_parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-job execution timeout (default: none)",
    )
    serve_parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help="retries (with backoff) for transient job failures",
    )
    serve_parser.add_argument(
        "--quota-jobs",
        type=int,
        default=16,
        help="max active jobs per client (default 16)",
    )
    serve_parser.add_argument(
        "--quota-points",
        type=int,
        default=512,
        help="max active grid points per client (default 512)",
    )
    serve_parser.add_argument(
        "--quota-points-per-job",
        type=int,
        default=256,
        help="max grid points in a single job (default 256)",
    )

    submit_parser = sub.add_parser(
        "submit",
        help=(
            "submit a sweep grid as a job to a running service, which "
            "measures it exactly as 'sweep' does"
        ),
    )
    _add_sweep_axes(submit_parser)
    _add_service_url(submit_parser)
    submit_parser.add_argument(
        "--client",
        default="cli",
        help="client id for quota accounting (default 'cli')",
    )
    submit_parser.add_argument(
        "--priority",
        type=int,
        default=0,
        help="scheduling priority (higher runs first; default 0)",
    )
    submit_parser.add_argument(
        "--wait",
        action="store_true",
        help="poll until the job finishes and print its result table",
    )
    submit_parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="--wait polling deadline in seconds (default 600)",
    )

    jobs_parser = sub.add_parser(
        "jobs",
        help=(
            "list jobs on a running service (or requeue dead ones "
            "with --requeue)"
        ),
    )
    _add_service_url(jobs_parser)
    jobs_parser.add_argument(
        "--state",
        default=None,
        choices=JOB_STATES,
        help="only jobs in this lifecycle state",
    )
    jobs_parser.add_argument(
        "--dead",
        action="store_true",
        help="shorthand for --state dead (retry budget exhausted)",
    )
    jobs_parser.add_argument(
        "--client",
        default=None,
        help="only jobs submitted by this client id",
    )
    jobs_parser.add_argument(
        "--requeue",
        nargs="+",
        metavar="JOB_ID",
        default=None,
        help=(
            "return the named dead job(s) to the queue with a fresh "
            "retry budget instead of listing"
        ),
    )

    chaos_parser = sub.add_parser(
        "chaos",
        help=(
            "run the service stack under a seeded fault plan and "
            "audit the chaos invariants (exits non-zero on violations)"
        ),
    )
    chaos_parser.add_argument(
        "--plan",
        default="mixed",
        choices=available_plans(),
        help="builtin fault plan to arm (default mixed)",
    )
    chaos_parser.add_argument(
        "--plan-file",
        default=None,
        metavar="PATH",
        help=(
            "JSON fault-plan document to arm instead of a builtin "
            "plan (see README: fault injection)"
        ),
    )
    chaos_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="fault-schedule seed (plan + seed replays identically)",
    )
    chaos_parser.add_argument(
        "--jobs", type=int, default=6, help="sweep jobs to submit"
    )
    chaos_parser.add_argument(
        "--clients",
        type=int,
        default=2,
        help="distinct client identities submitting jobs (default 2)",
    )
    chaos_parser.add_argument(
        "--workers",
        type=int,
        default=3,
        help="worker threads in the throwaway service (default 3)",
    )
    chaos_parser.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="service retry budget per job (default 3)",
    )
    chaos_parser.add_argument(
        "--dir",
        default=None,
        metavar="DIR",
        help=(
            "working directory for the store/caches (default: a "
            "fresh temp dir)"
        ),
    )
    chaos_parser.add_argument(
        "--keep",
        action="store_true",
        help="keep the working directory instead of removing it",
    )
    chaos_parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the fault-free baseline measurement and comparison",
    )
    chaos_parser.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        help="seconds to wait for every job to settle (default 120)",
    )

    status_parser = sub.add_parser(
        "status", help="show one service job's state and progress"
    )
    _add_service_url(status_parser)
    status_parser.add_argument("job_id")

    result_parser = sub.add_parser(
        "result", help="fetch a finished service job's result table"
    )
    _add_service_url(result_parser)
    result_parser.add_argument("job_id")
    result_parser.add_argument(
        "--wait",
        action="store_true",
        help="poll until the job finishes instead of failing fast",
    )
    result_parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="--wait polling deadline in seconds (default 600)",
    )
    return parser


def _add_service_url(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--url",
        required=True,
        help="base URL of a running service (see 'repro serve')",
    )


def _add_sweep_axes(parser: argparse.ArgumentParser) -> None:
    """Grid-axis flags shared by ``sweep`` (local) and ``submit`` (remote).

    One flag set, one grid builder (:func:`_grid_from_args`): a grid
    submitted to the service is *by construction* the same grid the
    local subcommand would measure.
    """
    parser.add_argument(
        "--dynamics",
        nargs="+",
        default=["3-majority"],
        help="one or more dynamics specs (grid axis when several)",
    )
    parser.add_argument(
        "--n", type=int, nargs="+", required=True, help="grid values for n"
    )
    parser.add_argument(
        "--k", type=int, nargs="+", required=True, help="grid values for k"
    )
    parser.add_argument(
        "--graph",
        default=None,
        choices=sorted(GRAPH_FAMILIES),
        help="graph substrate family applied at every point",
    )
    parser.add_argument(
        "--degree",
        type=int,
        nargs="+",
        default=None,
        help=(
            "vertex degree(s) for --graph random-regular; several "
            "values form a density-sweep grid axis"
        ),
    )
    parser.add_argument(
        "--edge-probability",
        type=float,
        default=None,
        help="edge probability for --graph erdos-renyi",
    )
    parser.add_argument(
        "--graph-seed",
        type=int,
        default=0,
        help="edge-set seed for random graph families (default 0)",
    )
    parser.add_argument(
        "--runs", type=int, default=3, help="replicas per point (default 3)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--max-rounds", type=int, default=None, help="round budget per run"
    )
    parser.add_argument(
        "--adversary",
        default=None,
        choices=available_adversaries(),
        help="adversary strategy applied at every grid point",
    )
    parser.add_argument(
        "--adversary-budget",
        type=int,
        nargs="+",
        default=None,
        metavar="F",
        help=(
            "adversary budget(s); several values add a tolerance-sweep "
            "grid axis"
        ),
    )
    parser.add_argument(
        "--chain",
        default="sync",
        choices=("sync", "async"),
        help=(
            "chain family to measure: the synchronous round-based "
            "chain (default) or the one-vertex-per-tick [CMRSS25] "
            "chain, reported in synchronous-equivalent rounds"
        ),
    )
    parser.add_argument(
        "--backend",
        nargs="+",
        default=None,
        choices=(AUTO_BACKEND, *available_backends()),
        help=(
            "compute backend(s) for the hot-path kernels; several "
            "values form a backend-comparison grid axis (points cache "
            "under distinct keys per backend)"
        ),
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--preset",
        default="quick",
        help="parameter preset (quick or paper; default quick)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="root seed (default 0)"
    )
    parser.add_argument(
        "--csv",
        default=None,
        metavar="DIR",
        help="also write <DIR>/<experiment>.csv",
    )


def _print_result(result, csv_dir: str | None) -> None:
    print(result.table())
    if result.notes:
        print(f"note: {result.notes}\n")
    if result.comparisons:
        print(render_comparisons_markdown(result.comparisons))
    if csv_dir:
        path = result.save_csv(csv_dir)
        print(f"csv written to {path}")
    print()


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        for experiment_id in sorted(EXPERIMENTS):
            module = EXPERIMENTS[experiment_id]
            presets = ", ".join(sorted(module.PRESETS))
            print(f"{experiment_id:8s} {module.TITLE}  [presets: {presets}]")
        return 0
    if args.command == "dynamics":
        for name in available_dynamics():
            print(name)
        print("<h>-majority (e.g. 5-majority)")
        return 0
    if args.command == "engines":
        for name in available_engines():
            info = get_engine(name)
            capabilities = ", ".join(
                label
                for label, flag in (
                    ("graph", info.supports_graph),
                    ("target", info.supports_target),
                    ("observers", info.supports_observers),
                    ("adversary", info.supports_adversary),
                )
                if flag
            )
            print(f"{name:12s} {info.description}  [{capabilities}]")
        return 0
    if args.command == "backends":
        default = default_backend()
        for name in available_backends():
            backend = get_backend(name, require_available=False)
            if backend_available(name):
                status = "available"
            else:
                reason = getattr(backend, "unavailable_reason", "")
                status = "unavailable"
                if reason:
                    status += f" ({reason})"
            marker = "  [default]" if name == default.name else ""
            kernels = ", ".join(sorted(backend.accelerates))
            kernel_note = (
                f"  kernels: {kernels}"
                if kernels
                else "  kernels: none (reference paths)"
            )
            print(
                f"{name:12s} {status:12s} {backend.description}"
                f"{kernel_note}{marker}"
            )
        return 0
    if args.command == "run":
        started = time.perf_counter()
        result = run_experiment(
            args.experiment_id, preset=args.preset, seed=args.seed
        )
        _print_result(result, args.csv)
        print(f"elapsed: {time.perf_counter() - started:.1f}s")
        return 0 if result.all_match else 1
    if args.command == "all":
        any_mismatch = False
        for experiment_id in EXPERIMENTS:
            started = time.perf_counter()
            result = run_experiment(
                experiment_id, preset=args.preset, seed=args.seed
            )
            _print_result(result, args.csv)
            print(
                f"[{experiment_id}] elapsed: "
                f"{time.perf_counter() - started:.1f}s\n"
            )
            any_mismatch |= any(
                c.verdict == "mismatch" for c in result.comparisons
            )
        return 1 if any_mismatch else 0
    if args.command == "report":
        return _report(args)
    if args.command == "simulate":
        return _simulate(args)
    if args.command == "sweep":
        return _sweep(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "submit":
        return _submit(args)
    if args.command == "status":
        return _status(args)
    if args.command == "result":
        return _result(args)
    if args.command == "jobs":
        return _jobs(args)
    if args.command == "chaos":
        return _chaos(args)
    if args.command == "lint":
        return _lint(args)
    if args.command == "verify":
        return _verify(args)
    return 2  # pragma: no cover - argparse enforces the choices


def _verify(args) -> int:
    from pathlib import Path

    from repro.provenance import verify_chain

    exit_code = 0
    for raw in args.paths:
        path = Path(raw)
        # Verifying a single payload file means verifying the chain of
        # the directory that attests it.
        directory = path.parent if path.is_file() else path
        report = verify_chain(directory)
        print(report.render())
        if not report.ok:
            exit_code = 1
    return exit_code


def _lint(args) -> int:
    from pathlib import Path

    from repro.lint import available_rules, get_rule, run_lint

    if args.list_rules:
        for name in available_rules():
            rule = get_rule(name)
            print(f"{name:28s} [{rule.severity}] {rule.description}")
        return 0
    paths = [Path(p) for p in args.paths] or None
    try:
        diagnostics = run_lint(paths, select=args.select)
    except ConfigurationError as exc:
        print(f"error: {exc}")
        return 2
    for diagnostic in diagnostics:
        print(diagnostic.render())
    errors = sum(
        1
        for d in diagnostics
        if d.rule == "syntax-error"
        or get_rule(d.rule).severity == "error"
    )
    if diagnostics:
        print(
            f"{len(diagnostics)} diagnostic(s), {errors} error(s); "
            "suppress a line with '# repro: noqa[rule-name]'"
        )
    return 1 if errors else 0


def _report(args) -> int:
    from pathlib import Path

    from repro.analysis.reporting import render_experiments_markdown

    results = []
    elapsed: dict[str, float] = {}
    for experiment_id in EXPERIMENTS:
        started = time.perf_counter()
        result = run_experiment(
            experiment_id, preset=args.preset, seed=args.seed
        )
        elapsed[experiment_id] = time.perf_counter() - started
        print(
            f"[{experiment_id}] done in {elapsed[experiment_id]:.1f}s"
        )
        if args.csv:
            result.save_csv(args.csv)
        results.append(result)
    body = render_experiments_markdown(
        results, preset=args.preset, elapsed=elapsed
    )
    Path(args.output).write_text(body)
    print(f"report written to {args.output}")
    mismatch = any(
        c.verdict == "mismatch"
        for result in results
        for c in result.comparisons
    )
    return 1 if mismatch else 0


def _simulate(args) -> int:
    from repro.engine import TrajectoryRecorder
    from repro.simulation import Simulation

    engine = args.engine
    graph = None
    if args.graph is None and (
        args.degree is not None or args.edge_probability is not None
    ):
        # Mirror the sweep subcommand: a forgotten --graph must not
        # silently run the complete-graph chain under a sparse label.
        print("error: --degree/--edge-probability require --graph NAME")
        return 2
    if args.graph is not None:
        try:
            graph = make_graph(
                args.graph,
                args.n,
                degree=args.degree,
                edge_probability=args.edge_probability,
                seed=args.graph_seed,
            )
        except Exception as exc:
            print(f"error: {exc}")
            return 2
        if engine is None:
            # No explicit --engine: pick the graph-capable engine
            # matching the workload (batched when replicated).  An
            # explicit non-graph engine falls through to the spec's
            # validation error naming the graph-capable engines.
            engine = "agent" if args.replicas == 1 else "agent-batch"
    elif engine is None:
        engine = "population"
    trajectory = engine == "population" and args.replicas == 1
    builder = (
        Simulation.of(args.dynamics)
        .n(args.n)
        .k(args.k)
        .initial(args.initial)
        .on_graph(graph)
        .engine(engine)
        .replicas(args.replicas)
        .seed(args.seed)
        .max_rounds(args.max_rounds)
        .backend(args.backend)
    )
    threshold = None
    if args.adversary is not None or args.adversary_budget is not None:
        builder.adversary(args.adversary, args.adversary_budget)
        if (
            args.adversary_budget
            and get_engine(engine).supports_target
        ):
            # An F >= 1 adversary can keep a stray vertex alive forever,
            # so "consensus despite the adversary" means the leader
            # reaches the near-consensus threshold (all but 4F
            # vertices, floored at a strict majority).
            threshold = near_consensus_threshold(
                args.n, args.adversary_budget
            )
            builder.stop_when(
                near_consensus_target(args.n, args.adversary_budget)
            )
        elif args.adversary_budget:
            print(
                f"note: engine={engine!r} does not support a "
                "custom stopping target, so this run measures strict "
                "consensus — a stalling adversary can block it for the "
                "whole round budget"
            )
    if trajectory:
        builder.observe_with(
            lambda: (TrajectoryRecorder(record_max_alpha=True),)
        )
    try:
        spec = builder.build()
    except (BackendUnavailableError, ConfigurationError) as exc:
        print(f"error: {exc}")
        return 2
    started = time.perf_counter()
    results = spec.run()
    wall = time.perf_counter() - started

    if trajectory:
        result = results[0]
        recorder = result.metrics["observers"][0]
        arrays = recorder.as_arrays()
        checkpoints = sorted(
            {0, len(arrays["round"]) - 1}
            | {len(arrays["round"]) * p // 4 for p in (1, 2, 3)}
        )
        print(spec.describe())
        for pos in checkpoints:
            print(
                f"  round {arrays['round'][pos]:>8d}: "
                f"gamma={arrays['gamma'][pos]:.5f} "
                f"alive={arrays['alive'][pos]:>6d} "
                f"leader={arrays['max_alpha'][pos]:.3f}"
            )
        if result.converged:
            if result.winner is not None:
                print(
                    f"consensus on opinion {result.winner} after "
                    f"{result.rounds} rounds ({wall:.2f}s wall-clock)"
                )
            else:
                print(
                    f"leader reached the adversarial-agreement "
                    f"threshold of {threshold} vertices after "
                    f"{result.rounds} rounds ({wall:.2f}s wall-clock)"
                )
            return 0
        print(
            f"no consensus within {args.max_rounds} rounds "
            f"({wall:.2f}s wall-clock)"
        )
        return 1

    print(results.summary())
    print(f"elapsed: {wall:.2f}s wall-clock")
    return 0 if results.num_censored == 0 else 1


def _grid_from_args(args) -> tuple[dict, dict]:
    """Build the sweep ``(grid, fixed)`` pair from shared axis flags.

    Used identically by the local ``sweep`` subcommand and the remote
    ``submit`` verb, so a submitted job measures exactly the grid the
    local command would.  Raises :class:`ConfigurationError` on
    inconsistent flag combinations.
    """
    grid: dict[str, list] = {"n": args.n, "k": args.k}
    fixed: dict = {}
    if len(args.dynamics) > 1:
        grid["dynamics"] = args.dynamics
    else:
        fixed["dynamics"] = args.dynamics[0]
    if args.max_rounds is not None:
        fixed["max_rounds"] = args.max_rounds
    graph_sweep = args.graph is not None
    adversarial = args.adversary is not None
    if args.chain == "async":
        if graph_sweep:
            raise ConfigurationError(
                "--chain async runs on the complete graph; drop "
                "--graph or use --chain sync"
            )
        fixed["engine"] = "async"
    if graph_sweep:
        fixed["graph"] = args.graph
        fixed["graph_seed"] = args.graph_seed
        if args.edge_probability is not None:
            fixed["edge_probability"] = args.edge_probability
        if args.degree:
            if len(args.degree) > 1:
                grid["degree"] = args.degree
            else:
                fixed["degree"] = args.degree[0]
    elif args.degree or args.edge_probability is not None:
        raise ConfigurationError(
            "--degree/--edge-probability require --graph NAME"
        )
    if adversarial:
        if not args.adversary_budget:
            raise ConfigurationError(
                "--adversary requires --adversary-budget F [F...]"
            )
        fixed["adversary"] = args.adversary
        if len(args.adversary_budget) > 1:
            grid["adversary_budget"] = args.adversary_budget
        else:
            fixed["adversary_budget"] = args.adversary_budget[0]
    elif args.adversary_budget:
        raise ConfigurationError(
            "--adversary-budget requires --adversary NAME"
        )
    if args.backend:
        # Validate eagerly so a submitted job never fails deep inside a
        # worker: naming an uninstalled backend is a CLI error here.
        for name in args.backend:
            if name != AUTO_BACKEND and not backend_available(name):
                raise BackendUnavailableError(
                    name,
                    getattr(
                        get_backend(name, require_available=False),
                        "unavailable_reason",
                        "",
                    ),
                )
        if len(args.backend) > 1:
            grid["backend"] = args.backend
        else:
            fixed["backend"] = args.backend[0]
    return grid, fixed


def _sweep(args) -> int:
    from repro.analysis.tables import format_table
    from repro.sweep import SweepSpec, run_sweep

    graph_sweep = args.graph is not None
    adversarial = args.adversary is not None
    try:
        grid, fixed = _grid_from_args(args)
        spec = SweepSpec(
            grid=grid, num_runs=args.runs, seed=args.seed, fixed=fixed
        )
        started = time.perf_counter()
        points = run_sweep(
            spec, cache_dir=args.cache, workers=args.workers
        )
    except (
        BackendUnavailableError,
        ConfigurationError,
        GraphError,
    ) as exc:
        # GraphError surfaces from substrate construction inside the
        # sweep (e.g. random-regular without --degree); all three are
        # user misconfiguration / environment gaps, not crashes.
        print(f"error: {exc}")
        return 2
    wall = time.perf_counter() - started
    headers = ["dynamics", "n", "k", "median T", "censored", "runs"]
    rows = [
        [
            point.params["dynamics"],
            point.params["n"],
            point.params["k"],
            point.median,
            point.censored,
            len(point.values),
        ]
        for point in points
    ]
    if adversarial:
        headers.insert(3, "F")
        for row, point in zip(rows, points):
            row.insert(3, point.params["adversary_budget"])
    if graph_sweep and "degree" in grid:
        headers.insert(3, "degree")
        for row, point in zip(rows, points):
            row.insert(3, point.params["degree"])
    title = (
        f"Consensus-time sweep ({len(points)} points, "
        f"{args.runs} runs each, seed={args.seed}"
        + (f", adversary={args.adversary}" if adversarial else "")
        + (f", graph={args.graph}" if graph_sweep else "")
        + (", chain=async" if args.chain == "async" else "")
        + ")"
    )
    print(format_table(headers, rows, title=title))
    print(f"elapsed: {wall:.2f}s wall-clock")
    return 0


def _serve(args) -> int:
    from repro.service import QuotaPolicy, SimulationService

    try:
        quota = QuotaPolicy(
            max_jobs=args.quota_jobs,
            max_points=args.quota_points,
            max_points_per_job=args.quota_points_per_job,
        )
        service = SimulationService(
            args.db,
            cache_dir=args.cache,
            host=args.host,
            port=args.port,
            num_workers=args.fleet,
            quota=quota,
            job_timeout=args.job_timeout,
            max_retries=args.max_retries,
        )
        service.start()
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}")
        return 2
    if service.requeued_orphans:
        print(
            f"re-queued {service.requeued_orphans} orphaned running "
            "job(s) from a previous process"
        )
    # The URL line is machine-read by the smoke tests and quickstart
    # scripts (--port 0 binds an ephemeral port only we know).
    print(
        f"serving on {service.url} "
        f"(db={args.db}, cache={args.cache}, workers={args.fleet})",
        flush=True,
    )
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("draining...", flush=True)
    finally:
        service.shutdown()
    return 0


def _print_result_points(payload: dict) -> None:
    from repro.analysis.tables import format_table

    points = payload["points"]
    failed = sum(1 for point in points if point["error"] is not None)
    headers = ["dynamics", "n", "k", "median T", "censored", "runs", "error"]
    rows = [
        [
            point["params"].get("dynamics", "?"),
            point["params"].get("n", "?"),
            point["params"].get("k", "?"),
            "-" if point["median"] is None else point["median"],
            point["censored"],
            len(point["values"]),
            point["error"] or "",
        ]
        for point in points
    ]
    title = (
        f"Job {payload['id']}: {len(points)} points"
        + (f", {failed} failed" if failed else "")
    )
    print(format_table(headers, rows, title=title))


def _submit(args) -> int:
    from repro.errors import ReproError
    from repro.service import ServiceClient

    client = ServiceClient(args.url, client_id=args.client)
    try:
        grid, fixed = _grid_from_args(args)
        job_id = client.submit(
            {
                "grid": grid,
                "fixed": fixed,
                "num_runs": args.runs,
                "seed": args.seed,
            },
            priority=args.priority,
        )
    except ReproError as exc:
        print(f"error: {exc}")
        return 2
    print(f"submitted job {job_id}")
    if not args.wait:
        print(
            f"poll with: repro status --url {args.url} {job_id}"
        )
        return 0
    return _poll_and_print(client, job_id, args.timeout)


def _status(args) -> int:
    from repro.errors import ReproError
    from repro.service import ServiceClient

    try:
        status = ServiceClient(args.url).status(args.job_id)
    except ReproError as exc:
        print(f"error: {exc}")
        return 2
    progress = status["progress"]
    print(
        f"job {status['id']}: {status['state']} "
        f"({progress['done_points']}/{progress['total_points']} points, "
        f"client={status['client']}, priority={status['priority']}, "
        f"attempts={status['attempts']})"
    )
    if status["error"]:
        print(f"last error: {status['error']}")
    return 0 if status["state"] != "failed" else 1


def _result(args) -> int:
    from repro.errors import ReproError
    from repro.service import ServiceClient

    client = ServiceClient(args.url)
    if args.wait:
        return _poll_and_print(client, args.job_id, args.timeout)
    try:
        payload = client.result(args.job_id)
    except ReproError as exc:
        print(f"error: {exc}")
        return 2
    _print_result_points(payload)
    return 0


def _jobs(args) -> int:
    from repro.errors import ReproError
    from repro.service import ServiceClient

    client = ServiceClient(args.url)
    state = "dead" if args.dead else args.state
    if args.dead and args.state not in (None, "dead"):
        print("error: --dead conflicts with --state "
              f"{args.state!r}")
        return 2
    try:
        if args.requeue:
            for job_id in args.requeue:
                payload = client.requeue(job_id)
                print(
                    f"requeued job {payload['id']} "
                    f"(state={payload['state']})"
                )
            return 0
        rows = client.jobs(state=state, client_id=args.client)
    except ReproError as exc:
        print(f"error: {exc}")
        return 2
    if not rows:
        print("no jobs match")
        return 0
    for job in rows:
        progress = job["progress"]
        line = (
            f"{job['id']}  {job['state']:9s} "
            f"{progress['done_points']}/{progress['total_points']} pts  "
            f"client={job['client']} attempts={job['attempts']}"
        )
        if job.get("error"):
            line += f"  error: {job['error']}"
        print(line)
    dead_count = sum(1 for job in rows if job["state"] == "dead")
    if dead_count and not args.dead:
        print(
            f"{dead_count} dead job(s); requeue with: repro jobs "
            f"--url {args.url} --requeue <JOB_ID>"
        )
    return 0


def _chaos(args) -> int:
    from pathlib import Path

    from repro.errors import ReproError
    from repro.faults import FaultPlan, run_chaos

    try:
        if args.plan_file is not None:
            plan = FaultPlan.from_json(
                Path(args.plan_file).read_text()
            )
        else:
            plan = args.plan
        report = run_chaos(
            plan,
            seed=args.seed,
            jobs=args.jobs,
            clients=args.clients,
            workers=args.workers,
            max_retries=args.max_retries,
            base_dir=args.dir,
            keep=args.keep,
            baseline=not args.no_baseline,
            timeout=args.timeout,
        )
    except (ReproError, OSError) as exc:
        print(f"error: {exc}")
        return 2
    print(report.render())
    if args.keep and args.dir:
        print(f"artefacts kept under {args.dir}")
    return 0 if report.ok else 1


def _poll_and_print(client, job_id: str, timeout: float) -> int:
    from repro.errors import ServiceError

    try:
        payload = client.wait(job_id, timeout=timeout)
    except (ServiceError, TimeoutError) as exc:
        print(f"error: {exc}")
        return 1
    _print_result_points(payload)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
