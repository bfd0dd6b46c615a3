"""The benchmark's workloads: the cells each one runs, and their digests.

A *cell* is one seeded virtual-time run: a ``Simulation`` built from a
``SimulationConfig``, or a ``PolicyBridge`` replaying an arrival trace.
A workload is an ordered tuple of cells; one pass over it is a *round*.
Every round of a workload at a given seed does the same work and must
produce the same digest.

The benchmark seed drives each cell's demand: the arrival stream of a
simulation cell, the replayed trace of a bridge cell.  Catalog,
placement, client classes and fault schedules stay those of the cell's
own config seed, so a seed changes which requests arrive when, not the
size of the problem; the catalog alone moves the DRM work of
``drm-overload`` by ~20% between config seeds.  Seed 0 runs every cell
exactly as configured, each committed scenario at its own seed.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, Tuple

from repro.cluster.system import LARGE_SYSTEM, SMALL_SYSTEM
from repro.core.migration import MigrationPolicy
from repro.scenario import load_scenario
from repro.serve.bridge import PolicyBridge, decisions_digest
from repro.serve.loadgen import arrival_trace
from repro.sim.rng import RandomStreams
from repro.simulation import Simulation, SimulationConfig

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"
HOUR = 3600.0


def demand_seed(config: SimulationConfig, seed: int) -> int:
    """The seed of a cell's demand at benchmark seed *seed*."""
    return config.seed + 1000 * seed


@dataclass(frozen=True)
class Cell:
    """One run of a workload.  A bridge cell replays the config's
    arrival trace through ``PolicyBridge.replay`` instead of running the
    built-in arrival process."""

    name: str
    config: SimulationConfig
    bridge: bool = False


@dataclass
class CellRun:
    """What one execution of a cell measured and produced."""

    name: str
    setup_s: float
    wall_s: float
    requests: int
    digest: str
    #: Simulator counters the traced run reports per layer.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Calibration-kernel time around the cell (set by the runner).
    kernel_s: float = 0.0


def _scenario(stem: str, duration: float) -> SimulationConfig:
    """A committed scenario at a stretched horizon."""
    config = load_scenario(SCENARIOS / f"{stem}.json").config
    return replace(config, duration=duration)


def _p4_large() -> Tuple[Cell, ...]:
    # Policy P4 on the Figure 3 large system: ~100 streams per server,
    # few rejections, so boundary handling and allocation dominate.
    return tuple(
        Cell(
            f"p4-large/theta={theta}",
            SimulationConfig(
                system=LARGE_SYSTEM, theta=theta, placement="even",
                migration=MigrationPolicy.paper_default(),
                staging_fraction=0.2, scheduler="eftf",
                client_receive_bandwidth=30.0, load=1.0,
                duration=2.0 * HOUR, warmup=HOUR, seed=index + 1,
            ),
        )
        for index, theta in enumerate((0.0, 0.5, 1.0))
    )


def _drm_overload() -> Tuple[Cell, ...]:
    # Figure 4's large panel at the skewed-away edge, no staging: about
    # half the arrivals find every holder full, so the DRM chain search
    # dominates while allocation has no workahead to hand out.
    cells = []
    for theta in (-1.5, -1.0):
        for label, policy in (
            ("hops=1", MigrationPolicy.paper_default()),
            ("hops=inf", MigrationPolicy.unlimited_hops()),
        ):
            cells.append(Cell(
                f"drm-overload/theta={theta}/{label}",
                SimulationConfig(
                    system=LARGE_SYSTEM, theta=theta, placement="even",
                    migration=policy, staging_fraction=0.0,
                    scheduler="eftf", load=1.0,
                    duration=2.0 * HOUR, warmup=HOUR, seed=len(cells) + 11,
                ),
            ))
    return tuple(cells)


def _scenario_mix() -> Tuple[Cell, ...]:
    # The committed scenarios at horizons sized so no cell dominates;
    # the only workload reaching the prefix, faults, elastic,
    # replication and bridge layers.
    return (
        Cell("mix/chaos_retry", _scenario("chaos_retry", 3.0 * HOUR)),
        Cell("mix/client_mix_replication",
             _scenario("client_mix_replication", 4.0 * HOUR)),
        Cell("mix/predictive_vcr", _scenario("predictive_vcr", 4.0 * HOUR)),
        Cell("mix/bursty_primetime",
             _scenario("bursty_primetime", 4.0 * HOUR)),
        Cell("mix/p4_small", _scenario("p4_small", 4.0 * HOUR)),
        Cell("mix/prefix_zipf_overload",
             _scenario("prefix_zipf_overload", 2.0 * HOUR)),
        Cell("mix/elastic_flash_crowd",
             _scenario("elastic_flash_crowd", 3600.0)),
        Cell(
            "mix/intermittent_overbook",
            SimulationConfig(
                system=SMALL_SYSTEM, theta=0.0, placement="even",
                migration=MigrationPolicy.paper_default(),
                staging_fraction=0.2, scheduler="intermittent",
                admission="overbook", client_receive_bandwidth=30.0,
                duration=1500.0, seed=41,
            ),
        ),
        Cell("mix/bridge/serve_loopback",
             _scenario("serve_loopback", 3600.0), bridge=True),
        Cell("mix/bridge/chaos_serve",
             _scenario("chaos_serve", 3600.0), bridge=True),
    )


WORKLOADS: Dict[str, Tuple[Cell, ...]] = {
    "p4-large": _p4_large(),
    "drm-overload": _drm_overload(),
    "scenario-mix": _scenario_mix(),
}


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def result_payload(result) -> dict:
    """Every field of a ``SimulationResult`` except its provenance,
    which carries a timestamp."""
    payload = asdict(result)
    payload.pop("provenance")
    payload["config"] = result.config.to_dict()
    return payload


def run_cell(
    cell: Cell,
    seed: int,
    mark: Callable[[str], None] = lambda phase: None,
    tracer=None,
) -> CellRun:
    """Build (set-up) and run (timed phase) one cell.

    ``mark`` is told when each phase ("build", "run") starts; *tracer*
    is an optional ``repro.obs.Tracer`` for a simulation cell.
    """
    clock = time.perf_counter
    config = cell.config
    mark("build")
    start = clock()
    if cell.bridge:
        bridge = PolicyBridge(config)
        specs = list(arrival_trace(
            replace(config, seed=demand_seed(config, seed))
        ))
        built = clock()
        mark("run")
        bridge.replay(specs)
        summary = bridge.finalize(config.duration)
        done = clock()
        payload = {
            "decisions": decisions_digest(bridge.decisions),
            "summary": summary,
        }
        metrics = bridge.controller.metrics
        engine = bridge.engine
        requests = len(specs)
    else:
        hooks = {}
        if seed:
            # The arrival process has drawn only its first gap; every
            # later gap and title comes from the seed's own stream.
            def reseed(sim):
                streams = RandomStreams(seed=demand_seed(config, seed))
                sim._arrivals.rng = streams.get("arrivals")

            hooks["workload"] = reseed
        sim = Simulation(config, tracer=tracer, stage_hooks=hooks)
        built = clock()
        mark("run")
        result = sim.run()
        done = clock()
        payload = result_payload(result)
        metrics = sim.metrics
        engine = sim.engine
        requests = sim._arrivals.generated
    counters = {
        "events": engine.events_fired,
        "events_cancelled": engine.events_cancelled,
        "faults_injected": metrics.faults_injected,
        "retries": metrics.retries,
        "retry_successes": metrics.retry_successes,
    }
    return CellRun(
        name=cell.name,
        setup_s=built - start,
        wall_s=done - built,
        requests=requests,
        digest=_sha(payload),
        counters=counters,
    )


def workload_digest(cell_digests) -> str:
    """One digest over a round's cell digests, in cell order."""
    return _sha(list(cell_digests))

