"""Per-layer attribution, timed from outside the program.

The traced run replaces each layer's entry points with wrappers defined
here, so the program under test is not edited.  A *span* wrapper
records ``(name, start, end, parent, cell, phase)`` in memory; a
*count* wrapper only increments a counter, for entry points called
about a million times per run, where a timer would distort the
timings it sits between.  :func:`uninstall` puts back exactly what
:func:`install` replaced.

A span's self time is its duration minus the part its child spans
cover.  The program is single-threaded, so the children of a span are
disjoint intervals inside it and that part is the sum of their
durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: One span: (name, start, end, parent index or -1, cell, phase).
Span = Tuple[str, float, float, int, str, str]

_MISSING = object()


def _note_streams(log, args, result):
    log.counts["allocate_into.streams"] += len(args[2])


def _note_found(log, args, result):
    if result is not None:
        log.counts["find_migration_chain.found"] += 1


def _note_chained(log, args, result):
    if result is not None:
        log.counts["PrefixTier.intercept.chained"] += 1


def _note_agenda(log, args, result):
    depth = len(args[0].engine.scheduler)
    if depth > log.counts["agenda_depth_max"]:
        log.counts["agenda_depth_max"] = depth


#: (module, attribute path, layer, kind, note).  ``kind`` is "span",
#: "count" (a method) or "count-property".  ``note(log, args, result)``
#: runs after the call and records what the span alone cannot.
TARGETS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("repro.sim.engine", "Engine.run_until", "sim", "span", None),
    ("repro.sim.process", "Process._advance", "workload", "span", None),
    ("repro.cluster.controller", "DistributionController.submit",
     "cluster", "span", None),
    ("repro.cluster.controller", "DistributionController.resubmit",
     "cluster", "span", None),
    ("repro.core.admission", "AdmissionController.submit",
     "core.admission", "span", None),
    ("repro.cluster.server", "DataServer.has_slot_for",
     "core.admission", "count", None),
    # The DRM search and execution as bound in core.admission, so only
    # admission-time migration is counted (not failover relocation).
    ("repro.core.admission", "find_migration_chain",
     "core.migration", "span", _note_found),
    ("repro.core.admission", "execute_chain",
     "core.migration", "span", None),
    ("repro.core.transmission", "TransmissionManager._on_boundary",
     "core.transmission", "span", _note_agenda),
    ("repro.core.transmission", "TransmissionManager.reallocate",
     "core.transmission", "span", None),
    ("repro.core.transmission", "TransmissionManager.admit",
     "core.transmission", "span", None),
    ("repro.core.transmission", "TransmissionManager.migrate_in",
     "core.transmission", "span", None),
    ("repro.core.transmission", "TransmissionManager.migrate_out",
     "core.transmission", "span", None),
    ("repro.cluster.request", "Request.transmission_finished",
     "core.transmission", "count-property", None),
    ("repro.core.schedulers", "BandwidthAllocator.allocate_into",
     "core.schedulers", "span", _note_streams),
    ("repro.core.schedulers", "BandwidthAllocator.allocate",
     "core.schedulers", "span", None),
    ("repro.core.intermittent", "IntermittentAllocator.allocate",
     "core.schedulers", "span", None),
    *(
        ("repro.analysis.metrics", f"SimulationMetrics.{name}",
         "analysis.metrics", "span", None)
        for name in (
            "record_bytes", "record_arrival", "record_accept",
            "record_reject", "record_migration",
            "record_migration_attempt", "record_relocation",
            "record_underrun", "record_finish", "record_drop",
            "record_retry", "record_retry_success",
            "record_retry_exhausted", "record_fault",
            "record_cache_lookup", "record_chained", "record_cache_bytes",
        )
    ),
    ("repro.prefix.tier", "PrefixTier.intercept", "prefix", "span",
     _note_chained),
    *(
        ("repro.prefix.tier", f"PrefixTier.{name}", "prefix", "span", None)
        for name in (
            "observe", "on_stream_finish", "on_stream_drop", "_warm_next",
            "_finish_warm", "_finish_child",
        )
    ),
    *(
        ("repro.faults.injector", f"FaultInjector.{name}", "faults", "span",
         None)
        for name in ("_crash", "_degrade", "_lose_replica")
    ),
    *(
        ("repro.core.failover", f"FailoverManager.{name}", "faults", "span",
         None)
        for name in (
            "fail_server", "restore_server", "degrade_server",
            "restore_link", "lose_replica",
        )
    ),
    *(
        ("repro.faults.retry", f"RetryQueue.{name}", "faults", "span", None)
        for name in ("_on_decision", "_on_drop", "_fire")
    ),
    *(
        ("repro.core.elastic", f"ElasticScaler.{name}", "core.elastic",
         "span", None)
        for name in (
            "observe", "_scale_out", "_scale_in", "_warm_next",
            "_finish_warm", "_activate", "_drain_tick",
            "_finish_evacuation", "_depart",
        )
    ),
    *(
        ("repro.core.replication", f"DynamicReplicator.{name}",
         "core.replication", "span", None)
        for name in ("observe", "_finish_copy")
    ),
    ("repro.serve.bridge", "PolicyBridge.submit", "serve.bridge", "span",
     None),
    ("repro.simulation", "Simulation._build_placement", "placement", "span",
     None),
)


class SpanLog:
    """In-memory spans and counters of one traced run."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.stack: List[int] = []
        self.counts: Counter = Counter()
        self.layer_of: Dict[str, str] = {}
        self.cell = ""
        self.phase = "run"

    def span_wrapper(self, name: str, fn: Callable, note=None) -> Callable:
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.cell, self.phase)
            if note is not None:
                note(self, args, result)
            return result

        return wrapper

    def count_wrapper(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write_jsonl(self, path) -> None:
        """Write every span, one JSON object a line."""
        with open(path, "w") as fh:
            for index, span in enumerate(self.spans):
                name, start, end, parent, cell, phase = span
                fh.write(json.dumps({
                    "id": index, "name": name,
                    "layer": self.layer_of[name],
                    "start": start, "end": end, "parent": parent,
                    "cell": cell, "phase": phase,
                }, separators=(",", ":")) + "\n")


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(log: SpanLog, targets=TARGETS) -> List[tuple]:
    """Wrap every target; returns what :func:`uninstall` needs.  If a
    target cannot be wrapped, the ones already wrapped are restored."""
    saved: List[tuple] = []
    try:
        for module_name, path, layer, kind, note in targets:
            owner, attr = _resolve(module_name, path)
            # Keep the owner's own entry (or its absence, for an
            # inherited attribute) so uninstall restores exactly the
            # original state.
            own = vars(owner).get(attr, _MISSING)
            original = getattr(owner, attr)
            if kind == "span":
                replacement = log.span_wrapper(path, original, note)
            elif kind == "count":
                replacement = log.count_wrapper(path, original)
            elif kind == "count-property":
                replacement = property(log.count_wrapper(path, original.fget))
            else:
                raise ValueError(f"unknown wrapper kind {kind!r}")
            log.layer_of[path] = layer
            saved.append((owner, attr, own))
            setattr(owner, attr, replacement)
    except BaseException:
        uninstall(saved)
        raise
    return saved


def uninstall(saved: Sequence[tuple]) -> None:
    """Restore every attribute :func:`install` replaced."""
    for owner, attr, own in reversed(saved):
        if own is _MISSING:
            delattr(owner, attr)
        else:
            setattr(owner, attr, own)


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [
        (span[2] - span[1]) - covered[index]
        for index, span in enumerate(spans)
    ]


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of percentile *q* among *n* samples."""
    return max(1, math.ceil(round(q * n / 100.0, 6)))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    ordered = sorted(samples)
    return ordered[_rank(q, len(ordered)) - 1] if ordered else 0.0


def tail_percentile(samples: Sequence[float]) -> Tuple[float, float]:
    """(percentile, value): the highest of p99.9/p99/p95/p90/p75 with at
    least ten samples beyond it, else p50."""
    n = len(samples)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n - _rank(q, n) >= 10:
            return q, percentile(samples, q)
    return 50.0, percentile(samples, 50.0)


#: Entry points whose every duration is kept, for latency percentiles.
LATENCY = (
    "DistributionController.submit", "DistributionController.resubmit",
    "find_migration_chain", "PolicyBridge.submit",
)
#: Allocator entry points; an ``allocate`` made from inside
#: ``allocate_into`` (the dict path) is part of one allocation pass.
ALLOCATORS = (
    "BandwidthAllocator.allocate_into", "BandwidthAllocator.allocate",
    "IntermittentAllocator.allocate",
)


class LayerTotals:
    """Per-entry-point aggregates, folded in one round's spans at a time
    so a long traced run does not hold every span."""

    def __init__(self, layer_of: Dict[str, str]) -> None:
        self.layer_of = layer_of
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.build_s: Counter = Counter()
        #: Durations per LATENCY name, plus "allocation" passes.
        self.samples: Dict[str, List[float]] = defaultdict(list)

    def fold(self, spans: Sequence[Span]) -> None:
        for index, own in enumerate(self_times(spans)):
            name, start, end, parent, _cell, phase = spans[index]
            duration = end - start
            if phase != "run":
                self.build_s[name] += duration
                continue
            self.calls[name] += 1
            self.self_s[name] += own
            self.total_s[name] += duration
            if name in LATENCY:
                self.samples[name].append(duration)
            if name in ALLOCATORS and not (
                parent >= 0 and spans[parent][0] in ALLOCATORS
            ):
                self.samples["allocation"].append(duration)

    def layer_self_s(self, layer: str) -> float:
        return sum(
            own for name, own in self.self_s.items()
            if self.layer_of[name] == layer
        )

    def layer_calls(self, layer: str) -> int:
        return sum(
            calls for name, calls in self.calls.items()
            if self.layer_of[name] == layer
        )

    def layer_shares(self, timed_wall: float) -> Dict[str, float]:
        """Self time of each layer as a share of the timed phase."""
        layers = sorted(set(self.layer_of.values()))
        shares = {layer: self.layer_self_s(layer) / timed_wall for layer in layers}
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
