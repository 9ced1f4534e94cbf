"""Differential oracle: serial vs sharded campaign byte-equality.

The parallel scan engine promises that ``--workers N`` changes nothing
but wall time: records come back in serial order and merged metrics
serialise byte-identically.  This module *replays* one campaign
configuration through both paths and diffs the serialized artefacts —
every stage's records (through the same
:func:`repro.scanners.io.dump_record` JSONL serializer the ``scan
--output`` path uses) and the deterministic ``metrics.json`` bytes.
Any divergence is reported with the first differing stage, index and
line, which is what makes a sharding regression debuggable rather than
a silent ordering flake.

:func:`run_fleet_differential` extends the oracle to the fleet
scheduler: one small matrix is run sequentially and through
``--fleet-jobs`` (shared world snapshot, persistent pool, concurrent
cells, ordered commits), and the *artefact files themselves* are
compared — raw warehouse database bytes and every per-cell
``metrics.json`` — because byte-identical files are exactly what the
fleet promises.
"""

from __future__ import annotations

import json
import sqlite3
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from repro.experiments.stages import STAGE_NAMES

__all__ = [
    "DifferentialResult",
    "DIFF_STAGES",
    "FleetDifferentialResult",
    "run_differential",
    "run_fleet_differential",
]

# Stage attributes compared record-for-record, in pipeline order.
DIFF_STAGES = ("all_dns_records",) + STAGE_NAMES


@dataclass
class DifferentialResult:
    workers: int
    records_compared: int = 0
    stage_records: Dict[str, int] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)
    metrics_identical: bool = False

    @property
    def ok(self) -> bool:
        return self.metrics_identical and not self.mismatches


def _record_lines(campaign, stage: str) -> List[str]:
    """Canonical one-line-per-record serialization of a stage."""
    from repro.scanners.io import dump_record
    from repro.scanners.results import SynRecord

    lines = []
    for record in getattr(campaign, stage):
        if isinstance(record, SynRecord):
            # SYN records have no JSONL schema (they never leave the
            # pipeline); a sorted-key literal dict is equally canonical.
            payload = {"address": str(record.address), "open": record.open, "port": record.port}
        else:
            payload = dump_record(record)
        lines.append(json.dumps(payload, sort_keys=True))
    return lines


def run_differential(
    seed: int = 9000,
    week: int = 18,
    scale_addresses: int = 100_000,
    workers: int = 2,
) -> DifferentialResult:
    """Run one campaign serially and with ``workers`` shards, then diff.

    ``scale_addresses`` is the world-scale divisor (larger = smaller
    world); the default matches the observability test scale so every
    stage still produces records while both runs stay fast.
    """
    from repro.experiments.campaign import Campaign, CampaignConfig
    from repro.internet.providers import Scale
    from repro.observability.report import render_metrics_json

    config = CampaignConfig(
        week=week,
        scale=Scale(
            addresses=scale_addresses,
            ases=max(1, scale_addresses // 50),
            domains=scale_addresses,
        ),
        seed=seed,
    )
    serial = Campaign(config, workers=1)
    parallel = Campaign(config, workers=max(2, workers))
    result = DifferentialResult(workers=max(2, workers))
    try:
        serial.run_all_stages()
        parallel.run_all_stages()
    finally:
        parallel.close()
        serial.close()

    for stage in DIFF_STAGES:
        serial_lines = _record_lines(serial, stage)
        parallel_lines = _record_lines(parallel, stage)
        result.stage_records[stage] = len(serial_lines)
        result.records_compared += len(serial_lines)
        if serial_lines == parallel_lines:
            continue
        if len(serial_lines) != len(parallel_lines):
            result.mismatches.append(
                f"{stage}: {len(serial_lines)} records serial vs "
                f"{len(parallel_lines)} with {result.workers} workers"
            )
            continue
        for index, (ours, theirs) in enumerate(zip(serial_lines, parallel_lines)):
            if ours != theirs:
                result.mismatches.append(
                    f"{stage}[{index}]: serial {ours} != parallel {theirs}"
                )
                break

    result.metrics_identical = render_metrics_json(serial) == render_metrics_json(parallel)
    if not result.metrics_identical:
        result.mismatches.append("metrics.json bytes differ between serial and parallel")
    return result


@dataclass
class FleetDifferentialResult:
    """Outcome of the fleet-vs-sequential matrix replay."""

    jobs: int
    cells: int = 0
    db_identical: bool = False
    metrics_identical: bool = False
    world_reuse_hits: int = 0
    pool_respawns: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.db_identical and self.metrics_identical and not self.mismatches


def _run_matrix_to(directory: Path, matrix, fleet_jobs=None):
    """One matrix run into ``directory``; returns (db bytes, metrics map, result)."""
    from repro.experiments.matrix import run_matrix

    db_path = directory / "matrix.sqlite"
    metrics_dir = directory / "metrics"
    conn = sqlite3.connect(db_path)
    try:
        result = run_matrix(
            matrix, conn, metrics_dir=metrics_dir, fleet_jobs=fleet_jobs
        )
        conn.commit()
    finally:
        conn.close()
    metrics = {
        path.name: path.read_bytes()
        for path in sorted(metrics_dir.glob("*.metrics.json"))
    }
    return db_path.read_bytes(), metrics, result


def run_fleet_differential(
    seed: int = 9000,
    week: int = 18,
    scale_addresses: int = 200_000,
    jobs: int = 2,
) -> FleetDifferentialResult:
    """Replay a 2-cell matrix sequentially and via the fleet; diff files.

    The comparison is deliberately at the artefact level — raw sqlite
    database bytes and per-cell ``metrics.json`` bytes — because that
    file-level identity is the fleet's contract (shared world
    activation, concurrent scans and overlapped loads must all be
    invisible in what lands on disk).
    """
    from repro.experiments.matrix import MatrixConfig, grid_cells
    from repro.internet.providers import Scale

    matrix = MatrixConfig(
        cells=grid_cells(1, 2),
        scale=Scale(
            addresses=scale_addresses,
            ases=max(1, scale_addresses // 50),
            domains=scale_addresses,
        ),
        seed=seed,
        week=week,
    )
    result = FleetDifferentialResult(jobs=max(1, jobs), cells=len(matrix.cells))
    with tempfile.TemporaryDirectory(prefix="repro-fleet-diff-") as tmp:
        root = Path(tmp)
        (root / "seq").mkdir()
        (root / "fleet").mkdir()
        seq_db, seq_metrics, _ = _run_matrix_to(root / "seq", matrix)
        fleet_db, fleet_metrics, fleet_run = _run_matrix_to(
            root / "fleet", matrix, fleet_jobs=result.jobs
        )

    telemetry = fleet_run.fleet_telemetry or {}
    result.world_reuse_hits = telemetry.get("world_reuse_hits", 0)
    result.pool_respawns = telemetry.get("pool_respawns", 0)

    result.db_identical = seq_db == fleet_db
    if not result.db_identical:
        result.mismatches.append(
            "warehouse database bytes differ between sequential and fleet runs"
        )
    result.metrics_identical = seq_metrics == fleet_metrics
    if not result.metrics_identical:
        for name in sorted(set(seq_metrics) | set(fleet_metrics)):
            if seq_metrics.get(name) != fleet_metrics.get(name):
                result.mismatches.append(f"metrics file {name} differs")
    if result.world_reuse_hits != result.cells - 1:
        result.mismatches.append(
            f"world_reuse_hits {result.world_reuse_hits}"
            f" != cells-1 ({result.cells - 1})"
        )
    if result.pool_respawns != 0:
        result.mismatches.append(f"pool_respawns {result.pool_respawns} != 0")
    return result
