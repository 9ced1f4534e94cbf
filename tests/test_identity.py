"""The identity matrix: how the work is split never shows in what a run leaves.

Each cell names a configuration and a mode; the run in that mode must
leave the artefacts (``repro.conformance.differential``) the serial run
of the same configuration leaves.  The cells span mode, fault profile,
path profile, retry policy and start method; the ``identity`` registry
(``tests/conftest.py``) makes each run once.  docs/CONFORMANCE.md
tabulates the cells and says how to add one.
"""

import os
from functools import partial

import pytest

from repro.conformance.differential import artefact_mismatches
from repro.experiments.campaign import CampaignConfig
from repro.experiments.matrix import MatrixConfig, profile_cells

from tests.conftest import (
    BASELINE_CONFIG,
    CHAOS_CONFIG,
    FULL_SERIES,
    WAREHOUSE_SCALE,
    WAREHOUSE_SEED,
)

_profiled = partial(CampaignConfig, week=18, scale=WAREHOUSE_SCALE, seed=WAREHOUSE_SEED)
LOSSY_FLAKY = _profiled(path_profile="lossy-edge", fault_profile="flaky-edge")

# The five canonical path cells: unshaped, three catalogue profiles and
# one inline spec; together they touch every shaping code path.
PROFILE_MATRIX = MatrixConfig(
    cells=tuple(
        profile_cells(
            ["baseline", "geo-satellite", "lossy-edge", "rate=2mbps,rtt=100ms", "bufferbloat"]
        )
    ),
    week=18,
    scale=WAREHOUSE_SCALE,
    seed=WAREHOUSE_SEED,
)

# cell -> (configuration, the mode whose artefacts must equal the serial run's)
CELLS = {
    "fork3-baseline": (BASELINE_CONFIG, "fork3"),
    "fork2-flaky-edge-retry2": (CHAOS_CONFIG, "fork2"),
    **{
        f"fork2-path-{profile}": (_profiled(path_profile=profile), "fork2")
        for profile in ("baseline", "geo-satellite", "bufferbloat")
    },
    "fork2-lossy-edge-flaky-edge": (LOSSY_FLAKY, "fork2"),
    "spawn2-lossy-edge-flaky-edge": (LOSSY_FLAKY, "spawn2"),
    "fleet1-matrix": (PROFILE_MATRIX, "fleet1"),
    "fleet2-matrix": (PROFILE_MATRIX, "fleet2"),
    # Spawned workers rebuild the world, then hold it from cell to cell.
    "spawn-fleet2-matrix": (PROFILE_MATRIX, "spawn-fleet2"),
    "fork2-series": (FULL_SERIES, "fork2"),
}


@pytest.mark.parametrize("cell", CELLS)
def test_mode_leaves_the_serial_artefacts(identity, cell):
    config, mode = CELLS[cell]
    expected, got = identity.run(config).artefacts, identity.run(config, mode).artefacts
    mismatches = artefact_mismatches(expected, got, ("serial", mode))
    assert not mismatches, mismatches[:5]
    assert all(expected.files.values()), "an empty artefact file"
    assert not expected.records or expected.records["qscan_sni_v4"], "no stateful records"


@pytest.mark.parametrize("mode", ["fleet1", "fleet2"])
def test_fleet_shares_one_world_and_holds_a_cell_from_submit_to_commit(identity, mode):
    """One world build, reused by every other cell, on a pool that never
    respawns.  A fleet that keeps committed cells (or builds them all up
    front) holds more than ``jobs + 1`` campaigns at a commit."""
    run = identity.run(PROFILE_MATRIX, mode)
    jobs, cells = int(mode[-1]), len(PROFILE_MATRIX.cells)
    at_commit, after, created = run.residency
    assert created == len(at_commit) == cells
    assert max(at_commit) <= jobs + 1 and after == 0
    telemetry = run.subject.fleet_telemetry
    assert telemetry["resident_cells_max"] == jobs + 1
    assert telemetry["pool_size"] == min(jobs, os.cpu_count())
    assert telemetry["world_builds"] == 1 and telemetry["world_reuse_hits"] == cells - 1
    assert telemetry["pool_respawns"] == 0


def test_series_on_two_workers_completes_every_week(identity):
    _db, _config, result = identity.run(FULL_SERIES, "fork2").subject
    assert [state.status for state in result.weeks] == ["complete"] * len(FULL_SERIES.weeks)


@pytest.mark.parametrize("cell", CELLS)
def test_the_parent_builds_each_world_once_and_forked_workers_none(identity, cell):
    """Counts: the parent builds a campaign's or a matrix's world once and
    a series' once a week; forked workers adopt the worlds it published
    and only configure them.  A worker cell whose campaign streamed no
    task to its pool ran serially."""
    config, mode = CELLS[cell]
    run = identity.run(config, mode)
    weeks = len(config.weeks) if config is FULL_SERIES else 1
    assert run.world_builders == (os.getpid(),) * weeks
    if isinstance(config, CampaignConfig):
        assert run.pooled_tasks > 0
