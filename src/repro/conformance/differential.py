"""Differential oracle: serial vs parallel vs fleet artefact equality.

The parallel scheduler promises that ``--workers N`` changes nothing
but wall time, and the fleet that ``--fleet-jobs`` leaves the warehouse
file and every per-cell ``metrics.json`` byte for byte as a sequential
matrix run writes them.  :class:`Artefacts` is what a run is compared
by and :func:`artefact_mismatches` the one comparison: every stage's
records with ``==``, every artefact file's bytes.  A differing stage
reports its first differing record through the same
:func:`repro.scanners.io.dump_record` JSONL serializer the ``scan
--output`` path uses, which makes a chunking regression debuggable
rather than a silent ordering flake.  :func:`run_differential` and
:func:`run_fleet_differential` (``repro conform``) and the test suite's
identity matrix all compare through these definitions.
"""

from __future__ import annotations

import json
import sqlite3
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence

from repro.experiments.stages import STAGE_NAMES

__all__ = [
    "Artefacts",
    "DifferentialResult",
    "DIFF_STAGES",
    "FleetDifferentialResult",
    "artefact_mismatches",
    "campaign_artefacts",
    "matrix_artefacts",
    "run_differential",
    "run_fleet_differential",
]

# Stage attributes compared record-for-record, in pipeline order.
DIFF_STAGES = ("all_dns_records",) + STAGE_NAMES


@dataclass
class Artefacts:
    """What one run leaves behind that another mode must reproduce.

    ``records`` maps each of :data:`DIFF_STAGES` to its record sequence
    (a campaign run only); ``files`` maps an artefact file name to its
    bytes: ``metrics.json`` for a campaign, the warehouse database and
    each cell's ``<cell>.metrics.json`` for a matrix.
    """

    records: Dict[str, Sequence]
    files: Dict[str, bytes]


def campaign_artefacts(campaign) -> Artefacts:
    """A finished campaign's records per stage and its metrics.json bytes."""
    from repro.observability.report import render_metrics_json

    return Artefacts(
        records={stage: getattr(campaign, stage) for stage in DIFF_STAGES},
        files={"metrics.json": render_metrics_json(campaign).encode()},
    )


def matrix_artefacts(directory: Path, matrix, fleet_jobs):
    """Run ``matrix`` into ``directory`` on ``fleet_jobs`` (``None``: the
    sequential driver); returns (its :class:`Artefacts`, its result)."""
    from repro.experiments.matrix import run_matrix

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    database, metrics_dir = directory / "matrix.sqlite", directory / "metrics"
    conn = sqlite3.connect(database)
    try:
        result = run_matrix(matrix, conn, metrics_dir=metrics_dir, fleet_jobs=fleet_jobs)
    finally:
        conn.close()
    files = {database.name: database.read_bytes()}
    for path in sorted(metrics_dir.glob("*.metrics.json")):
        files[path.name] = path.read_bytes()
    return Artefacts({}, files), result


def _record_line(record) -> str:
    """One canonical JSON line for a record (for failure messages)."""
    from repro.scanners.io import dump_record
    from repro.scanners.results import SynRecord

    if isinstance(record, SynRecord):
        # SYN records have no JSONL schema (they never leave the
        # pipeline); a sorted-key literal dict is equally canonical.
        payload = {"address": str(record.address), "open": record.open, "port": record.port}
    else:
        payload = dump_record(record)
    return json.dumps(payload, sort_keys=True)


def artefact_mismatches(reference: Artefacts, other: Artefacts, names) -> List[str]:
    """Every way ``other`` differs from ``reference``, one line each.

    A stage whose records differ is one line (its counts, or its first
    differing record); a file whose bytes differ is one line.
    ``names`` label the two runs.
    """
    ours, theirs = names
    mismatches = []
    for stage, left in reference.records.items():
        right = other.records.get(stage, [])
        if left == right:
            continue
        if len(left) != len(right):
            mismatches.append(f"{stage}: {len(left)} records {ours} vs {len(right)} {theirs}")
            continue
        index = next(i for i, pair in enumerate(zip(left, right)) if pair[0] != pair[1])
        mismatches.append(
            f"{stage}[{index}]: {ours} {_record_line(left[index])}"
            f" != {theirs} {_record_line(right[index])}"
        )
    for name in sorted(set(reference.files) | set(other.files)):
        if reference.files.get(name) != other.files.get(name):
            mismatches.append(f"{name} bytes differ between {ours} and {theirs}")
    return mismatches


@dataclass
class DifferentialResult:
    workers: int
    records_compared: int = 0
    stage_records: Dict[str, int] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def run_differential(
    seed: int = 9000,
    week: int = 18,
    scale_addresses: int = 100_000,
    workers: int = 2,
) -> DifferentialResult:
    """Run one campaign serially and on ``workers`` processes, then diff.

    ``scale_addresses`` is the world-scale divisor (larger = smaller
    world); the default matches the observability test scale so every
    stage still produces records while both runs stay fast.
    """
    from repro.experiments.campaign import Campaign, CampaignConfig
    from repro.internet.providers import scale_for

    config = CampaignConfig(week=week, scale=scale_for(scale_addresses), seed=seed)
    result = DifferentialResult(workers=max(2, workers))
    serial = Campaign(config, workers=1)
    parallel = Campaign(config, workers=result.workers)
    try:
        serial.run_all_stages()
        parallel.run_all_stages()
    finally:
        parallel.close()
        serial.close()
    reference = campaign_artefacts(serial)
    result.stage_records = {stage: len(records) for stage, records in reference.records.items()}
    result.records_compared = sum(result.stage_records.values())
    result.mismatches = artefact_mismatches(
        reference, campaign_artefacts(parallel), ("serial", f"{result.workers} workers")
    )
    return result


@dataclass
class FleetDifferentialResult:
    """Outcome of the fleet-vs-sequential matrix replay."""

    jobs: int
    cells: int = 0
    world_reuse_hits: int = 0
    pool_respawns: int = 0
    mismatches: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


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
    from repro.internet.providers import scale_for

    matrix = MatrixConfig(
        cells=grid_cells(1, 2),
        scale=scale_for(scale_addresses),
        seed=seed,
        week=week,
    )
    result = FleetDifferentialResult(jobs=max(1, jobs), cells=len(matrix.cells))
    with tempfile.TemporaryDirectory(prefix="repro-fleet-diff-") as tmp:
        sequential, _ = matrix_artefacts(Path(tmp, "seq"), matrix, None)
        fleet, fleet_run = matrix_artefacts(Path(tmp, "fleet"), matrix, fleet_jobs=result.jobs)

    telemetry = fleet_run.fleet_telemetry or {}
    result.world_reuse_hits = telemetry.get("world_reuse_hits", 0)
    result.pool_respawns = telemetry.get("pool_respawns", 0)
    result.mismatches = artefact_mismatches(sequential, fleet, ("sequential", "fleet"))
    if result.world_reuse_hits != result.cells - 1:
        result.mismatches.append(
            f"world_reuse_hits {result.world_reuse_hits}"
            f" != cells-1 ({result.cells - 1})"
        )
    if result.pool_respawns != 0:
        result.mismatches.append(f"pool_respawns {result.pool_respawns} != 0")
    return result
