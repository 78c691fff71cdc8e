"""Span tracer that times the repo's layers from outside the package.

:class:`Tracer` wraps public functions and methods of ``repro`` with a
timing wrapper, records one span per call, and removes every wrap on
:meth:`Tracer.uninstall`.  Nothing under ``src/`` is edited: a function
is replaced in every loaded ``repro`` module that bound it by name
(``from repro.x import f`` makes a second binding), and a method in
every class of the hierarchy that defines it.

Spans are kept in memory.  Each thread keeps its own span stack, so a
span's self time (duration minus its children) is computed as it ends.
Per-round spans (the step kernels and the engine bookkeeping around
them) only feed per-name totals; every other span is also kept as a
record for the trace file.  Service spans carry the job id as their
request id, and the service boundaries also stamp per-job events
(submitted, enqueued, leased, ...) from which queue wait and result
lag are measured.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict

#: Span names that fire once per simulated round: aggregated only.
HOT_SPANS = frozenset(
    {
        "engine.step",
        "engine.consensus_mask",
        "core.step",
        "core.multinomial",
        "core.sample",
        "core.majority_winners",
    }
)

_WRAPPED_MARK = "__perfbench_wrapped__"

_STORE_METHODS = (
    "submit",
    "lease_next",
    "record_heartbeat",
    "complete",
    "fail",
    "requeue_dead",
    "cancel",
    "requeue_orphans",
    "get",
    "find_by_idempotency_key",
    "jobs",
    "active_load",
    "stats",
)


def _job_id_arg(args, kwargs, result):
    """Request id of a call whose first argument after self is a job id."""
    job_id = kwargs.get("job_id", args[1] if len(args) > 1 else None)
    return job_id if isinstance(job_id, str) else None


def _job_result(args, kwargs, result):
    """Request id of a call that returns a ``Job``."""
    return getattr(result, "id", None)


def _job_arg(args, kwargs, result):
    """Request id of ``run_sweep_job(job, ...)``."""
    return getattr(args[0], "id", None) if args else None


def _client_submit(args, kwargs, result):
    """Request id of ``ServiceClient.submit``: the returned job id."""
    return result if isinstance(result, str) else None


#: (span name, module, function).
FUNCTION_TARGETS = (
    ("experiments.run", "repro.experiments.registry", "run_experiment"),
    ("simulation.execute", "repro.simulation.run", "execute"),
    ("simulation.spec", "repro.sweep.grid", "spec_from_params"),
    ("sweep.run", "repro.sweep.grid", "run_sweep"),
    ("sweep.measure", "repro.sweep.grid", "consensus_times_point_batch"),
    ("provenance.record", "repro.provenance.chain", "record_artifact"),
    ("core.multinomial", "repro.core.base", "batch_multinomial_counts"),
    ("core.sample", "repro.core.base", "sample_opinions_from_counts_batch"),
    ("core.majority_winners", "repro.core.h_majority", "majority_winners"),
    ("service.execute", "repro.service.workers", "run_sweep_job"),
)

#: (span name, module, class, method).
METHOD_TARGETS = (
    ("simulation.spec", "repro.simulation.spec", "SimulationSpec", "__init__"),
    ("engine.run", "repro.engine.batch", "BatchPopulationEngine", "__init__"),
    (
        "engine.run",
        "repro.engine.batch",
        "BatchPopulationEngine",
        "run_until_consensus",
    ),
    ("engine.step", "repro.engine.batch", "BatchPopulationEngine", "step"),
    (
        "engine.consensus_mask",
        "repro.core.base",
        "Dynamics",
        "consensus_mask_batch",
    ),
    ("core.step", "repro.core.base", "Dynamics", "population_step_batch"),
    ("service.lease", "repro.service.scheduler", "Scheduler", "lease"),
    ("service.submit", "repro.service.client", "ServiceClient", "submit"),
    ("service.wait", "repro.service.client", "ServiceClient", "wait"),
    ("service.status", "repro.service.client", "ServiceClient", "status"),
) + tuple(
    ("service.store_txn", "repro.service.store", "JobStore", method)
    for method in _STORE_METHODS
)

#: Request-id function and per-job events, keyed by (function,) or
#: (class, method).  ``events`` maps ``"start"``/``"end"`` to the event
#: stamped at that edge of the span.
_REQUEST_IDS = {
    ("run_sweep_job",): (_job_arg, {"start": "exec_start", "end": "exec_end"}),
    ("Scheduler", "lease"): (_job_result, {"end": "leased"}),
    ("ServiceClient", "submit"): (
        _client_submit,
        {"start": "submit_start", "end": "submitted"},
    ),
    ("ServiceClient", "wait"): (_job_id_arg, {"end": "returned"}),
    ("ServiceClient", "status"): (_job_id_arg, {}),
    ("JobStore", "submit"): (_job_result, {"end": "enqueued"}),
    ("JobStore", "complete"): (
        _job_id_arg,
        {"start": "complete_start", "end": "completed"},
    ),
    ("JobStore", "record_heartbeat"): (_job_id_arg, {}),
    ("JobStore", "fail"): (_job_id_arg, {}),
    ("JobStore", "get"): (_job_id_arg, {}),
}


class _Frame:
    __slots__ = ("name", "span_id", "start", "child_ns", "rid")

    def __init__(self, name, span_id, rid):
        self.name = name
        self.span_id = span_id
        self.start = 0
        self.child_ns = 0
        self.rid = rid


class Tracer:
    """Install timing wraps on the layer boundaries; collect spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        #: name -> [inclusive ns, self ns, calls]
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        #: counter name -> value
        self.counts: dict[str, int] = defaultdict(int)
        #: kept spans: (span id, parent id, name, thread, start, end, rid)
        self.records: list[tuple] = []
        #: job id -> {event: perf_counter_ns}
        self.events: dict[str, dict[str, int]] = defaultdict(dict)

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Wrap every target; raises if wraps are already installed."""
        if self._patches or wraps_installed():
            raise RuntimeError("tracer wraps are already installed")
        # Import every target first: a module imported mid-install would
        # bind an already-wrapped function that uninstall never sees.
        for target in FUNCTION_TARGETS + METHOD_TARGETS:
            importlib.import_module(target[1])
        for name, module_name, attribute in FUNCTION_TARGETS:
            original = getattr(importlib.import_module(module_name), attribute)
            rid_of, events = _REQUEST_IDS.get((attribute,), (None, {}))
            wrapper = self._wrap(name, original, rid_of, events, attribute)
            for module in _repro_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for name, module_name, class_name, method in METHOD_TARGETS:
            base = getattr(importlib.import_module(module_name), class_name)
            rid_of, events = _REQUEST_IDS.get((class_name, method), (None, {}))
            for cls in _class_tree(base):
                original = cls.__dict__.get(method)
                if original is None or hasattr(original, _WRAPPED_MARK):
                    continue
                self._patch(
                    cls,
                    method,
                    self._wrap(name, original, rid_of, events, method),
                )

    def uninstall(self) -> None:
        """Restore every wrapped binding, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner, attribute, wrapper) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    # -- the wrapper --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, rid_of, events, attribute):
        tracer = self
        keep = name not in HOT_SPANS
        start_event = events.get("start")
        end_event = events.get("end")
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is not None and parent.name == name:
                # Re-entry into the same layer (a method calling its
                # super(), spec_from_params calling itself): one span.
                return fn(*args, **kwargs)
            rid = rid_of(args, kwargs, None) if rid_of is not None else None
            if rid is None and parent is not None:
                rid = parent.rid
            frame = _Frame(name, next(tracer._ids), rid)
            stack.append(frame)
            result = None
            frame.start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                if parent is not None:
                    parent.child_ns += duration
                if frame.rid is None and rid_of is not None:
                    frame.rid = rid_of(args, kwargs, result)
                tracer._close(
                    frame, parent, end, duration, keep, args, result,
                    attribute, start_event, end_event,
                )

        setattr(traced, _WRAPPED_MARK, fn)
        return traced

    def _close(
        self, frame, parent, end, duration, keep, args, result,
        attribute, start_event, end_event,
    ) -> None:
        name = frame.name
        with self._lock:
            total = self.totals[name]
            total[0] += duration
            total[1] += duration - frame.child_ns
            total[2] += 1
            if name == "core.step":
                self.counts["core.rows_stepped"] += len(args[1])
            elif name == "engine.step":
                self.counts["engine.rows_carried"] += args[0].num_replicas
            elif name == "service.lease" and result is None:
                self.counts["service.lease_empty"] += 1
            elif name == "service.store_txn" and attribute == "record_heartbeat":
                self.counts["service.heartbeats"] += 1
            elif name == "sweep.run" and isinstance(result, list):
                self.counts["sweep.points"] += len(result)
            if keep:
                self.records.append(
                    (
                        frame.span_id,
                        parent.span_id if parent is not None else None,
                        name,
                        threading.get_ident(),
                        frame.start,
                        end,
                        frame.rid,
                    )
                )
            if frame.rid is not None:
                job_events = self.events[frame.rid]
                if start_event is not None:
                    job_events.setdefault(start_event, frame.start)
                if end_event is not None:
                    job_events[end_event] = end

    # -- summaries ----------------------------------------------------

    def seconds(self, name: str) -> float:
        """Inclusive seconds spent in spans called ``name``."""
        return self.totals[name][0] / 1e9 if name in self.totals else 0.0

    def self_seconds(self, prefix: str) -> float:
        """Self seconds of every span whose name starts with ``prefix``."""
        return sum(
            total[1] for name, total in self.totals.items()
            if name.startswith(prefix)
        ) / 1e9

    def calls(self, name: str) -> int:
        return self.totals[name][2] if name in self.totals else 0

    def to_document(self) -> dict:
        """JSON-ready dump of totals, counters, kept spans and events."""
        return {
            "totals": {
                name: {
                    "inclusive_s": total[0] / 1e9,
                    "self_s": total[1] / 1e9,
                    "calls": total[2],
                }
                for name, total in sorted(self.totals.items())
            },
            "counts": dict(sorted(self.counts.items())),
            "span_fields": [
                "span_id", "parent_id", "name", "thread", "start_ns",
                "end_ns", "request_id",
            ],
            "spans": [list(record) for record in self.records],
            "job_events": {rid: dict(ev) for rid, ev in self.events.items()},
        }


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _class_tree(base: type):
    seen, pending = [], [base]
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.append(cls)
        pending.extend(cls.__subclasses__())
    return seen


def wraps_installed() -> list[str]:
    """Every ``repro`` binding currently holding a tracer wrap."""
    found = []
    for module in _repro_modules():
        for key, value in list(vars(module).items()):
            if hasattr(value, _WRAPPED_MARK):
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, type):
                for attribute, member in vars(value).items():
                    if hasattr(member, _WRAPPED_MARK):
                        found.append(
                            f"{module.__name__}.{key}.{attribute}"
                        )
    return found
