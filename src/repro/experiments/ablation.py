"""EXT-ABL — spare-bandwidth scheduler ablation.

DESIGN.md calls out the choice of EFTF as the design decision Theorem 1
justifies; this ablation measures it against the alternatives in
:mod:`repro.core.schedulers` under the Figure 5 setup (20 % staging, no
migration, 30 Mb/s receive cap):

* ``eftf`` — the paper's earliest-finish-first greedy;
* ``proportional`` — spare split evenly (water-filling);
* ``lftf`` — latest-finish-first (adversarial straw man);
* ``none`` — spare idle (pure continuous transmission).

Expected shape: EFTF ≥ proportional > none, with LFTF between
proportional and none — freeing whole slots early (EFTF) is what turns
workahead into admission capacity.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.cluster.system import SMALL_SYSTEM, SystemConfig
from repro.core.migration import MigrationPolicy
from repro.experiments.base import (
    ExperimentScale,
    SweepResult,
    THETA_GRID_COARSE,
    Variant,
    resolve_scale,
    run_sweep,
)
from repro.experiments.registry import Artifact, ExperimentSpec, register
from repro.simulation import SimulationConfig

ABLATED_ALLOCATORS: Sequence[str] = ("eftf", "proportional", "lftf", "none")


def run_ablation(
    system: SystemConfig = SMALL_SYSTEM,
    theta_values: Optional[List[float]] = None,
    schedulers: Sequence[str] = ABLATED_ALLOCATORS,
    staging_fraction: float = 0.2,
    scale: Optional[float] = None,
    seed: int = 0,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepResult:
    """Utilization vs θ for each spare-bandwidth scheduler."""
    exp_scale: ExperimentScale = resolve_scale(scale)
    base = SimulationConfig(
        system=system,
        theta=0.0,
        placement="even",
        migration=MigrationPolicy.disabled(),
        staging_fraction=staging_fraction,
        duration=exp_scale.duration,
        warmup=exp_scale.warmup,
        seed=seed,
        client_receive_bandwidth=30.0,
    )
    variants = [Variant(name, {"scheduler": name}) for name in schedulers]
    return run_sweep(
        base,
        theta_values if theta_values is not None else THETA_GRID_COARSE,
        variants,
        exp_scale,
        base_seed=seed,
        progress=progress,
    )


# ----------------------------------------------------------------------
# CLI self-registration (see repro.experiments.registry)
# ----------------------------------------------------------------------

def _cli_run(args, progress) -> int:
    result = run_ablation(
        scale=args.scale, seed=args.seed, progress=progress,
    )
    print(result.render(title="EXT-ABL: scheduler ablation"))
    return 0


def _cli_artifacts(scale, seed, progress):
    result = run_ablation(scale=scale, seed=seed, progress=progress)
    yield Artifact(
        stem="ext_abl", title="EXT-ABL",
        text=result.render(title="EXT-ABL"), sweep=result,
    )


register(ExperimentSpec(
    name="ablation",
    help="spare-bandwidth scheduler ablation",
    run_cli=_cli_run,
    artifacts=_cli_artifacts,
    order=50,
))


def main() -> None:  # pragma: no cover - CLI glue, exercised via repro.cli
    result = run_ablation(progress=print)
    print()
    print(result.render(title="EXT-ABL: spare-bandwidth scheduler ablation"))


if __name__ == "__main__":  # pragma: no cover
    main()
