"""The repo benchmark: seeded virtual-time workloads, end-to-end metrics
and per-layer attribution.

Usage (from the repository root)::

    python3 perfbench/run.py --workload p4-large --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing attached.
``--trace 1`` wraps the layers' entry points (see ``layers.py``) and
reports the per-layer metrics.  Either way every cell's output is
hashed and checked; the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every cell ran and matched its digest.

Results, host fingerprint and (traced) spans are also written under
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from calibrate import REFERENCE_KERNEL_S, calibrated, kernel_seconds

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = REPO / ".perfbench"
DIGESTS = HERE / "digests.json"
WORKLOAD_NAMES = ("p4-large", "drm-overload", "scenario-mix")
#: The cell whose wall time with and without a program ``obs.Tracer``
#: gives ``obs.tracer_overhead_ratio``.
OBS_CELL = "p4-large/theta=1.0"
#: Child interpreters timed importing the package, for ``setup_s``.
IMPORT_SAMPLES = 7
#: Modules the benchmark needs from the package.
IMPORTS = "repro.simulation, repro.scenario, repro.serve.bridge, repro.serve.loadgen"


@dataclass
class Round:
    """One pass over a workload's cells."""

    runs: list = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    #: Digest of every cell that ran, matching or not.
    seen: Dict[str, str] = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return sum(run.setup_s for run in self.runs)

    @property
    def calibrated_setup_s(self) -> float:
        return sum(calibrated(run.setup_s, run.kernel_s) for run in self.runs)

    @property
    def wall_s(self) -> float:
        return sum(run.wall_s for run in self.runs)

    @property
    def requests(self) -> int:
        return sum(run.requests for run in self.runs)


def run_round(cells, seed: int, expected: Dict[str, str], mark=None) -> Round:
    """Run every cell once.  A cell fails if it raises or if its digest
    differs from *expected* (when a digest is expected for it)."""
    from cells import run_cell

    out = Round()
    for cell in cells:
        # Each cell starts from a collected heap, so the garbage of the
        # cell before it is not collected on its clock.
        gc.collect()
        before = kernel_seconds()
        try:
            if mark is None:
                run = run_cell(cell, seed)
            else:
                run = run_cell(cell, seed, mark=lambda phase: mark(cell, phase))
        except Exception:
            out.failures.append(f"{cell.name}: raised\n{traceback.format_exc()}")
            continue
        run.kernel_s = (before + kernel_seconds()) / 2.0
        out.seen[cell.name] = run.digest
        want = expected.get(cell.name)
        if want is not None and want != run.digest:
            out.failures.append(
                f"{cell.name}: digest {run.digest} != expected {want}"
            )
            continue
        out.runs.append(run)
    return out


def measure(
    cells, seed: int, seconds: float, expected, mark=None, after_round=None
) -> List[Round]:
    """Run rounds until *seconds* have passed (at least one).  The first
    round's digests become the expectation for later rounds."""
    expected = dict(expected)
    rounds: List[Round] = []
    deadline = time.perf_counter() + seconds
    while True:
        rounds.append(run_round(cells, seed, expected, mark))
        if after_round is not None:
            after_round(rounds[-1])
        for name, digest in rounds[-1].seen.items():
            expected.setdefault(name, digest)
        if time.perf_counter() >= deadline:
            return rounds


def import_seconds(samples: int) -> List[Tuple[float, float]]:
    """Time importing the package in fresh interpreters: (import time,
    calibration-kernel time around it) per interpreter."""
    code = (
        "import sys, time; sys.path[:0] = sys.argv[1:]; "
        "from calibrate import kernel_seconds; kernel_seconds(); "
        "k = kernel_seconds(); t = time.perf_counter(); "
        f"import {IMPORTS}; "
        "t = time.perf_counter() - t; print(t, (k + kernel_seconds()) / 2)"
    )
    out = []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(HERE)],
            capture_output=True, text=True, cwd=REPO, timeout=60,
            check=True,
        )
        seconds, kernel_s = (float(x) for x in done.stdout.split())
        out.append((seconds, kernel_s))
    return out


def cell_wall(rounds: Sequence[Round], calibrate: bool = True) -> float:
    """The timed-phase wall time of one round, summed over cells.  Per
    cell, calibrated: its time per round at the reference kernel speed,
    from its total time over all rounds and the total kernel time
    around it (see calibrate.py), so a long slow round weighs as much
    as it took; raw: the median over rounds."""
    walls: Dict[str, List[float]] = {}
    kernels: Dict[str, List[float]] = {}
    for rnd in rounds:
        for run in rnd.runs:
            walls.setdefault(run.name, []).append(run.wall_s)
            kernels.setdefault(run.name, []).append(run.kernel_s)
    if not calibrate:
        return sum(statistics.median(w) for w in walls.values())
    return sum(
        calibrated(sum(walls[name]), sum(kernels[name])) for name in walls
    )


def host_fingerprint(seed: int) -> dict:
    """Where and from what a result came.  Results from different
    hosts are read side by side, never compared as absolutes."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted((REPO / "scenarios").glob("*.json")):
        source.update(str(path.relative_to(REPO)).encode())
        source.update(path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "git_revision": git_revision(),
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def git_revision() -> str:
    """HEAD's commit, read from ``.git`` without running git."""
    head = REPO / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = REPO / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = REPO / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds, imports, failed, attempted) -> Dict[str, dict]:
    """The end-to-end metrics; times are calibrated (see calibrate.py)."""
    wall = cell_wall(rounds)
    requests = rounds[0].requests if rounds[0].runs else 0
    return {
        "wall_s": metric(wall, "s"),
        "requests_per_s": metric(requests / wall if wall else 0.0, "1/s"),
        "setup_s": metric(
            statistics.median(calibrated(s, k) for s, k in imports)
            + statistics.median(r.calibrated_setup_s for r in rounds),
            "s",
        ),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
        "cell_success_ratio": metric(1.0 - failed / attempted, "ratio"),
    }


def obs_overhead(seed: int, pairs: int = 2):
    """Wall time of one cell with a program ``obs.Tracer`` attached,
    and without; alternating, median of each."""
    from cells import WORKLOADS, run_cell
    from repro import obs

    cell = next(c for c in WORKLOADS["p4-large"] if c.name == OBS_CELL)
    plain, traced = [], []
    for _ in range(pairs):
        plain.append(run_cell(cell, seed).wall_s)
        traced.append(run_cell(cell, seed, tracer=obs.Tracer()).wall_s)
    return statistics.median(traced), statistics.median(plain)


def per_layer(totals, counts, rounds, reference, imports, tracer_pair):
    """Every per-layer metric, per round of the workload."""
    from layers import percentile

    n = len(rounds)
    calls, own, samples = totals.calls, totals.self_s, totals.samples

    def total(key):
        return sum(run.counters[key] for rnd in rounds for run in rnd.runs) / n

    def us(values, q=99.0):
        return percentile(values, q) * 1e6

    def ratio(part, base):
        return part / base if base else 0.0

    submit = ("DistributionController.submit", "DistributionController.resubmit")
    submit_d = samples[submit[0]] + samples[submit[1]]
    searches = calls["find_migration_chain"]
    lookups = calls["PrefixTier.intercept"]
    retries = total("retries")
    traced_wall = sum(r.wall_s for r in rounds) / n
    tracer_wall, plain_wall = tracer_pair
    values = {
        "sim.events": (total("events"), "count"),
        "sim.events_cancelled": (total("events_cancelled"), "count"),
        "sim.self_s": (own["Engine.run_until"] / n, "s"),
        "sim.agenda_depth_max": (counts["agenda_depth_max"], "count"),
        "workload.arrivals": (reference.requests, "count"),
        "workload.self_s": (totals.layer_self_s("workload") / n, "s"),
        "cluster.submit.calls": (len(submit_d) / n, "count"),
        "cluster.submit.self_s": (sum(own[k] for k in submit) / n, "s"),
        "cluster.submit.p50_us": (us(submit_d, 50.0), "us"),
        "cluster.submit.p99_us": (us(submit_d), "us"),
        "core.admission.self_s": (own["AdmissionController.submit"] / n, "s"),
        "core.admission.slot_checks": (counts["DataServer.has_slot_for"] / n, "count"),
        "core.migration.searches": (searches / n, "count"),
        "core.migration.search_s": (totals.total_s["find_migration_chain"] / n, "s"),
        "core.migration.search_p99_us": (us(samples["find_migration_chain"]), "us"),
        "core.migration.found_ratio": (
            ratio(counts["find_migration_chain.found"], searches), "ratio"),
        "core.migration.executed": (calls["execute_chain"] / n, "count"),
        "core.migration.self_s": (totals.layer_self_s("core.migration") / n, "s"),
        "core.transmission.boundaries": (
            calls["TransmissionManager._on_boundary"] / n, "count"),
        "core.transmission.boundary_self_s": (
            own["TransmissionManager._on_boundary"] / n, "s"),
        "core.transmission.reallocations": (
            calls["TransmissionManager.reallocate"] / n, "count"),
        "core.transmission.reallocate_self_s": (
            own["TransmissionManager.reallocate"] / n, "s"),
        "core.transmission.streams_per_pass": (
            ratio(counts["allocate_into.streams"],
                  calls["BandwidthAllocator.allocate_into"]), "count"),
        "core.transmission.finish_checks": (
            counts["Request.transmission_finished"] / n, "count"),
        "core.transmission.self_s": (
            totals.layer_self_s("core.transmission") / n, "s"),
        "core.schedulers.allocate_calls": (len(samples["allocation"]) / n, "count"),
        "core.schedulers.allocate_s": (sum(samples["allocation"]) / n, "s"),
        "core.schedulers.allocate_p99_us": (us(samples["allocation"]), "us"),
        "core.schedulers.dict_path_calls": (
            (calls["BandwidthAllocator.allocate"]
             + calls["IntermittentAllocator.allocate"]) / n, "count"),
        "core.schedulers.self_s": (totals.layer_self_s("core.schedulers") / n, "s"),
        "analysis.metrics.calls": (totals.layer_calls("analysis.metrics") / n, "count"),
        "analysis.metrics.self_s": (totals.layer_self_s("analysis.metrics") / n, "s"),
        "prefix.lookups": (lookups / n, "count"),
        "prefix.self_s": (totals.layer_self_s("prefix") / n, "s"),
        "prefix.chain_ratio": (
            ratio(counts["PrefixTier.intercept.chained"], lookups), "ratio"),
        "faults.injected": (total("faults_injected"), "count"),
        "faults.self_s": (totals.layer_self_s("faults") / n, "s"),
        "faults.retries": (retries, "count"),
        "faults.retry_success_ratio": (
            ratio(total("retry_successes"), retries), "ratio"),
        "core.elastic.self_s": (totals.layer_self_s("core.elastic") / n, "s"),
        "core.replication.self_s": (
            totals.layer_self_s("core.replication") / n, "s"),
        "serve.bridge.submits": (calls["PolicyBridge.submit"] / n, "count"),
        "serve.bridge.submit_p99_us": (us(samples["PolicyBridge.submit"]), "us"),
        "setup.import_s": (statistics.median(s for s, _ in imports), "s"),
        "setup.build_s": (reference.setup_s, "s"),
        "placement.build_s": (
            totals.build_s["Simulation._build_placement"] / n, "s"),
        "obs.tracer_overhead_ratio": (tracer_wall / plain_wall, "ratio"),
        "obs.untraced_cell_s": (plain_wall, "s"),
        "trace.overhead_ratio": (traced_wall / reference.wall_s, "ratio"),
        "trace.untraced_wall_s": (reference.wall_s, "s"),
    }
    return {name: metric(value, unit) for name, (value, unit) in values.items()}


def report_lines(totals, rounds) -> List[str]:
    """Human-readable layer shares and latency sample counts."""
    from layers import tail_percentile

    traced_wall = sum(r.wall_s for r in rounds)
    lines = ["layer self-time share of the traced timed phase:"]
    for layer, share in totals.layer_shares(traced_wall).items():
        lines.append(f"  {layer:22s} {share * 100:6.2f}%")
    samples = totals.samples
    for label, values in (
        ("cluster.submit", samples["DistributionController.submit"]
         + samples["DistributionController.resubmit"]),
        ("core.migration.search", samples["find_migration_chain"]),
        ("core.schedulers.allocate", samples["allocation"]),
        ("serve.bridge.submit", samples["PolicyBridge.submit"]),
    ):
        q, value = tail_percentile(values)
        lines.append(
            f"  {label}: tail p{q:g} = {value * 1e6:.1f} us over "
            f"{len(values)} samples ({len(rounds)} rounds)"
        )
    return lines


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def prepare() -> bool:
    """Make the package importable from this checkout's source, with no
    REPRO_* switch (invariants, tracing, profiling, agenda choice)
    leaking into a measurement.  False when the source is missing."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return False
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(SRC), str(HERE)]
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    if not prepare():
        return 2

    from cells import WORKLOADS, workload_digest

    imports = import_seconds(IMPORT_SAMPLES)
    cells = WORKLOADS[args.workload]
    recorded = json.loads(DIGESTS.read_text()).get(args.workload, {})
    expected = recorded.get(str(args.seed), {})
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        import layers

        reference = run_round(cells, args.seed, expected)
        tracer_pair = obs_overhead(args.seed)
        log = layers.SpanLog()
        totals = layers.LayerTotals(log.layer_of)

        def mark(cell, phase):
            log.cell = cell.name
            log.phase = phase

        def fold(rnd):
            # Spans of the first traced round are written out; every
            # round is folded into the totals and then dropped.
            if not totals.calls:
                log.write_jsonl(OUT / f"{args.workload}.spans.jsonl")
            totals.fold(log.spans)
            log.spans.clear()

        saved = layers.install(log)
        try:
            rounds = measure(
                cells, args.seed, args.seconds,
                {**reference.seen, **expected}, mark, fold,
            )
        finally:
            layers.uninstall(saved)
        all_rounds = [reference] + rounds
    else:
        rounds = measure(cells, args.seed, args.seconds, expected)
        all_rounds = rounds

    failures = [f for rnd in all_rounds for f in rnd.failures]
    attempted = len(all_rounds) * len(cells)
    failed = len(failures)
    digest = workload_digest(
        all_rounds[0].seen.get(c.name, "raised") for c in cells
    )
    if args.trace:
        metrics = per_layer(
            totals, log.counts, rounds, reference, imports, tracer_pair
        )
        lines = report_lines(totals, rounds)
    else:
        metrics = end_to_end(rounds, imports, failed, attempted)
        kernels = [run.kernel_s for rnd in rounds for run in rnd.runs]
        lines = [
            f"  uncalibrated wall_s {cell_wall(rounds, calibrate=False):.6g} s; "
            f"calibration kernel median "
            f"{statistics.median(kernels or [0.0]) * 1e3:.3f} ms "
            f"(reference {REFERENCE_KERNEL_S * 1e3:g} ms)"
        ]

    provenance = host_fingerprint(args.seed)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({
            **result,
            "workload": args.workload,
            "digest": digest,
            "error_rate": failed / attempted,
            "failures": failures,
            "rounds": [
                {"setup_s": r.setup_s, "wall_s": r.wall_s,
                 "cells": {run.name: run.wall_s for run in r.runs},
                 "kernel_s": {run.name: run.kernel_s for run in r.runs}}
                for r in all_rounds
            ],
            "import_s": imports,
            "provenance": provenance,
        }, fh, indent=1)

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"host {json.dumps(provenance, sort_keys=True)}")
    print(f"digest {args.workload} seed={args.seed} {digest}")
    print(
        f"{args.workload}: {len(all_rounds)} rounds x {len(cells)} cells, "
        f"error_rate {failed / attempted:.4f} ({failed}/{attempted})"
    )
    for line in lines:
        print(line)
    for name, entry in metrics.items():
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
