"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
from calibrate import REFERENCE_KERNEL_S  # noqa: E402
from cells import Cell, CellRun, WORKLOADS, run_cell  # noqa: E402
from repro.cluster.system import SMALL_SYSTEM  # noqa: E402
from repro.core.migration import MigrationPolicy  # noqa: E402
from repro.simulation import SimulationConfig  # noqa: E402
from run import Round, cell_wall, end_to_end, measure, run_round  # noqa: E402


TINY = Cell("tiny", SimulationConfig(
    system=SMALL_SYSTEM, theta=-1.0, placement="even",
    migration=MigrationPolicy.paper_default(), staging_fraction=0.2,
    duration=1200.0, warmup=300.0, load=1.3, seed=5,
))
#: A test-only cell that always fails: it has no config to build.
BROKEN = Cell("broken", None)


def test_self_time_on_nested_call_tree():
    # a[0,10] holds b[1,4] and c[5,9]; c holds d[6,8].
    spans = [
        ("a", 0.0, 10.0, -1, "cell", "run"),
        ("b", 1.0, 4.0, 0, "cell", "run"),
        ("c", 5.0, 9.0, 0, "cell", "run"),
        ("d", 6.0, 8.0, 2, "cell", "run"),
        ("e", 11.0, 12.0, -1, "cell", "run"),
    ]
    assert layers.self_times(spans) == [3.0, 3.0, 2.0, 2.0, 1.0]


def test_wrapped_call_records_nested_spans():
    log = layers.SpanLog()

    def inner():
        return 7

    wrapped_inner = log.span_wrapper("inner", inner)
    wrapped_outer = log.span_wrapper("outer", lambda: wrapped_inner() + 1)
    assert wrapped_outer() == 8
    outer, child = log.spans
    assert outer[0] == "outer" and outer[3] == -1
    assert child[0] == "inner" and child[3] == 0
    assert outer[1] <= child[1] <= child[2] <= outer[2]


def test_uninstall_restores_original_attributes():
    before = []
    for module, path, *_ in layers.TARGETS:
        owner, attr = layers._resolve(module, path)
        before.append((owner, attr, dict(vars(owner)).get(attr, "absent")))
    saved = layers.install(layers.SpanLog())
    unwrapped = [
        (owner, attr) for owner, attr, entry in before
        if vars(owner).get(attr, "absent") is entry
    ]
    layers.uninstall(saved)
    assert unwrapped == []  # every target was replaced ...
    for owner, attr, entry in before:  # ... and is back as it was
        assert vars(owner).get(attr, "absent") is entry


def test_failed_install_restores_what_it_wrapped():
    engine_cls, _ = layers._resolve("repro.sim.engine", "Engine.run_until")
    original = vars(engine_cls)["run_until"]
    bad = layers.TARGETS[:1] + (
        ("repro.sim.engine", "Engine.no_such_method", "sim", "span", None),
    )
    with pytest.raises(AttributeError):
        layers.install(layers.SpanLog(), bad)
    assert vars(engine_cls)["run_until"] is original


def test_traced_run_matches_untraced_digest():
    untraced = run_cell(TINY, 0)
    log = layers.SpanLog()
    saved = layers.install(log)
    try:
        traced = run_cell(TINY, 0)
    finally:
        layers.uninstall(saved)
    assert traced.digest == untraced.digest
    names = {span[0] for span in log.spans}
    assert "TransmissionManager._on_boundary" in names
    assert "find_migration_chain" in names
    assert log.counts["DataServer.has_slot_for"] > 0


def test_failing_cell_counts_in_error_rate():
    rounds = measure([TINY, BROKEN], 0, 0.0, {})
    (only,) = rounds
    assert len(only.runs) == 1 and len(only.failures) == 1
    metrics = end_to_end(rounds, [(0.1, 0.01)], failed=1, attempted=2)
    assert metrics["cell_success_ratio"]["value"] == 0.5


def test_calibrated_wall_weighs_rounds_by_their_kernel_time():
    def run(wall_s, kernel_s):
        return CellRun("c", 0.0, wall_s, 1, "d", kernel_s=kernel_s)

    rounds = [Round(runs=[run(1.0, REFERENCE_KERNEL_S)]),
              Round(runs=[run(3.0, 2 * REFERENCE_KERNEL_S)])]
    # 4 s of cell time while the kernel ran 3 reference times: 4/3 s a round.
    assert cell_wall(rounds) == pytest.approx(4.0 / 3.0)
    assert cell_wall(rounds, calibrate=False) == pytest.approx(2.0)


def test_digest_mismatch_fails_the_cell():
    out = run_round([TINY], 0, {"tiny": "0" * 64})
    assert out.runs == [] and "digest" in out.failures[0]


def test_seed_changes_inputs_and_is_deterministic():
    first = run_cell(TINY, 3)
    assert run_cell(TINY, 3).digest == first.digest
    assert run_cell(TINY, 4).digest != first.digest


@pytest.mark.parametrize("n, q", [(5, 50.0), (100, 90.0), (1000, 99.0),
                                  (20000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, q):
    got_q, value = layers.tail_percentile([float(i) for i in range(n)])
    assert got_q == q
    assert sum(1 for i in range(n) if i > value) >= 10 or q == 50.0


def test_workload_cell_names_are_unique():
    for cells in WORKLOADS.values():
        names = [cell.name for cell in cells]
        assert len(names) == len(set(names))
