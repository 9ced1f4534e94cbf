"""Scenario matrix: sweep a campaign over a path-condition grid.

``repro matrix`` fans a datarate x latency grid (or an explicit list
of named path profiles) over the existing parallel/streaming engine:
one :class:`~repro.experiments.campaign.Campaign` per cell, each with
its own ``path_profile`` (so its cache key, warehouse campaign id and
metrics are cell-scoped), loaded into the warehouse through the
ordinary :func:`~repro.warehouse.loader.load_campaign` transaction.
The cell's ``matrix_runs`` ledger row and its heatmap-ready
``mart_matrix_outcomes`` row commit *inside* that same transaction
(the loader's ``on_commit`` hook), so a recorded cell always has its
staging rows behind it — the same crash-safety idiom the longitudinal
ledger uses.

Determinism: the matrix id digests the grid plus the campaign
configuration (never the worker count), and each cell inherits the
campaign determinism contract — ``--workers N`` runs produce
byte-identical per-cell records, metrics.json and warehouse rows.

Outcome rows are recomputed from the cell's stored
``mart_outcome_mix`` and ``mart_table5_parity`` rows by
:func:`repro.warehouse.qa.run_matrix_qa` (the matrix
``mart_equivalence`` check: stored against recomputed), so a tampered
outcome row fails loudly even long after the campaigns are gone from
memory.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence, Tuple

from repro.experiments.campaign import Campaign, CampaignConfig
from repro.internet.providers import Scale
from repro.netsim.paths import parse_path_spec
from repro.observability.report import write_metrics_json
from repro.warehouse import loader as loader_module
from repro.warehouse import qa as qa_module
from repro.warehouse.schema import SCHEMA_VERSION, ensure_schema

__all__ = [
    "DEFAULT_RATES_MBPS",
    "DEFAULT_RTTS_MS",
    "MatrixCell",
    "MatrixCellResult",
    "MatrixConfig",
    "MatrixResult",
    "grid_cells",
    "matrix_id",
    "profile_cells",
    "run_matrix",
]

# Canonical sweep axes ("QUIC on the highway"-style datarate x latency
# ranges); a --grid RxC request picks an evenly spread selection.
DEFAULT_RATES_MBPS: Tuple[float, ...] = (0.5, 1, 2, 5, 10, 20, 50)
DEFAULT_RTTS_MS: Tuple[int, ...] = (25, 50, 100, 200, 400, 600)


@dataclass(frozen=True)
class MatrixCell:
    """One cell of the sweep: a labelled path spec."""

    cell_id: str
    spec: str  # CampaignConfig.path_profile value
    grid_row: int
    grid_col: int
    rate_label: str
    rtt_label: str
    profile: str  # display name ("custom" for bare rate x rtt cells)


@dataclass(frozen=True)
class MatrixConfig:
    """The full sweep: cells plus the per-cell campaign parameters.

    ``workers``/``cache_dir`` are execution details and deliberately
    excluded from :func:`matrix_id` — the determinism contract says
    they cannot change any recorded byte.
    """

    cells: Tuple[MatrixCell, ...]
    week: int = 18
    scale: Scale = field(default_factory=Scale)
    seed: int = 0
    fast_crypto: bool = True
    workers: Optional[int] = None
    cache_dir: Optional[object] = None


@dataclass
class MatrixCellResult:
    cell: MatrixCell
    campaign_id: str
    load: "loader_module.LoadResult"


@dataclass
class MatrixResult:
    matrix_id: str
    cells: List[MatrixCellResult]
    qa: List["qa_module.QaResult"]
    # Fleet scheduler counters (world_reuse_hits, pool_respawns,
    # overlap_ratio, ...) when the run went through ``fleet_jobs``.
    fleet_telemetry: Optional[dict] = None

    @property
    def qa_failures(self) -> List["qa_module.QaResult"]:
        return [result for result in self.qa if result.status != "pass"]


def _number(value: float) -> str:
    """Axis label number: ``2`` not ``2.0``, ``0.5`` stays ``0.5``."""
    return f"{value:g}"


def _spread(values: Sequence, count: int) -> List:
    """``count`` evenly spread picks from ``values``, endpoints included."""
    if not 1 <= count <= len(values):
        raise ValueError(
            f"grid axis wants {count} values but only {len(values)} are"
            f" available: {values!r}"
        )
    if count == 1:
        return [values[0]]
    step = (len(values) - 1) / (count - 1)
    return [values[round(index * step)] for index in range(count)]


def grid_cells(
    rows: int,
    cols: int,
    rates_mbps: Optional[Sequence[float]] = None,
    rtts_ms: Optional[Sequence[float]] = None,
) -> List[MatrixCell]:
    """A datarate x latency grid: rows sweep rate, columns sweep RTT.

    Explicit axis values are used as given; otherwise an evenly spread
    selection from the canonical :data:`DEFAULT_RATES_MBPS` /
    :data:`DEFAULT_RTTS_MS` ranges.
    """
    rates = list(rates_mbps) if rates_mbps is not None else _spread(DEFAULT_RATES_MBPS, rows)
    rtts = list(rtts_ms) if rtts_ms is not None else _spread(DEFAULT_RTTS_MS, cols)
    cells = []
    for row, rate in enumerate(rates):
        for col, rtt in enumerate(rtts):
            spec = f"rate={_number(rate)}mbps,rtt={_number(rtt)}ms"
            cells.append(
                MatrixCell(
                    cell_id=spec,
                    spec=spec,
                    grid_row=row,
                    grid_col=col,
                    rate_label=f"{_number(rate)}mbps",
                    rtt_label=f"{_number(rtt)}ms",
                    profile="custom",
                )
            )
    return cells


def profile_cells(names: Sequence[str]) -> List[MatrixCell]:
    """One cell per named path profile (or inline spec string)."""
    cells = []
    for index, name in enumerate(names):
        spec = parse_path_spec(name)  # raises PathSpecError loudly
        rate = spec.rate if spec.rate is not None else spec.down_rate
        rate_label = f"{_number(rate * 8 / 1_000_000)}mbps" if rate is not None else "-"
        rtt_label = f"{_number(spec.rtt * 1000)}ms" if spec.rtt is not None else "-"
        cells.append(
            MatrixCell(
                cell_id=name,
                spec=name,
                grid_row=index,
                grid_col=0,
                rate_label=rate_label,
                rtt_label=rtt_label,
                profile=spec.name,
            )
        )
    return cells


def matrix_id(matrix: MatrixConfig) -> str:
    """Deterministic digest naming this sweep in the warehouse."""
    key = (
        "matrix",
        SCHEMA_VERSION,
        matrix.week,
        matrix.seed,
        dataclasses.astuple(matrix.scale),
        matrix.fast_crypto,
        tuple((cell.cell_id, cell.spec) for cell in matrix.cells),
    )
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


def _cell_config(matrix: MatrixConfig, cell: MatrixCell) -> CampaignConfig:
    return CampaignConfig(
        week=matrix.week,
        scale=matrix.scale,
        seed=matrix.seed,
        fast_crypto=matrix.fast_crypto,
        path_profile=cell.spec,
    )


def _record_cell(
    conn: sqlite3.Connection,
    mid: str,
    order: int,
    cell: MatrixCell,
    campaign_id: str,
) -> None:
    """Write the cell's ledger and outcome rows (inside the load txn)."""
    conn.execute(
        "INSERT OR REPLACE INTO matrix_runs VALUES (?, ?, ?, ?, ?, ?, ?)",
        (
            mid,
            cell.cell_id,
            cell.grid_row,
            cell.grid_col,
            parse_path_spec(cell.spec).canonical(),
            campaign_id,
            SCHEMA_VERSION,
        ),
    )
    targets, rates, tcp_parity = qa_module.matrix_outcome_values(conn, campaign_id)
    conn.execute(
        "DELETE FROM mart_matrix_outcomes WHERE matrix_id = ? AND row_order = ?",
        (mid, order),
    )
    conn.execute(
        "INSERT INTO mart_matrix_outcomes VALUES"
        " (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        (
            mid,
            order,
            cell.cell_id,
            cell.profile,
            cell.rate_label,
            cell.rtt_label,
            campaign_id,
            targets,
            *rates,
            tcp_parity,
        ),
    )


def run_matrix(
    matrix: MatrixConfig,
    conn: sqlite3.Connection,
    strict: bool = True,
    metrics_dir: Optional[Path] = None,
    log: Optional[Callable[[str], None]] = None,
    fleet_jobs: Optional[int] = None,
) -> MatrixResult:
    """Run every cell campaign and load it; QA the matrix afterwards.

    Each cell's ledger/outcome rows commit atomically with its
    warehouse load.  With ``metrics_dir``, every cell's deterministic
    metrics.json is written as ``<cell_id>.metrics.json`` (the
    serial == parallel byte-identity artefact).  With ``strict``
    (default), any cell QA failure or matrix QA failure raises
    :class:`~repro.warehouse.qa.WarehouseQaError` — after the
    offending evidence is committed, never instead of it.

    With ``fleet_jobs`` the cells run through the
    :class:`~repro.parallel.fleet.FleetScheduler`: one world snapshot
    shared by every cell, one persistent pool, up to ``fleet_jobs``
    cells scanning concurrently, and commits applied in cell order so
    the database and metrics files stay byte-identical to a sequential
    run.
    """
    seen = {cell.cell_id for cell in matrix.cells}
    if len(seen) != len(matrix.cells):
        raise ValueError("matrix cells must have unique cell ids")
    ensure_schema(conn)
    mid = matrix_id(matrix)
    with conn:
        conn.execute("DELETE FROM matrix_runs WHERE matrix_id = ?", (mid,))
        conn.execute(
            "DELETE FROM mart_matrix_outcomes WHERE matrix_id = ?", (mid,)
        )
        conn.execute("DELETE FROM qa_results WHERE campaign_id = ?", (mid,))
    if metrics_dir is not None:
        metrics_dir = Path(metrics_dir)
        metrics_dir.mkdir(parents=True, exist_ok=True)
    fleet_telemetry = None
    if fleet_jobs is not None:
        results, fleet_telemetry = _run_cells_fleet(
            matrix, conn, mid, strict, metrics_dir, log, fleet_jobs
        )
    else:
        results = _run_cells_sequential(matrix, conn, mid, strict, metrics_dir, log)
    with conn:  # the QA ledger commits before a failure is raised, as a load's does
        qa = qa_module.run_matrix_qa(conn, mid, strict=False)
    result = MatrixResult(
        matrix_id=mid, cells=results, qa=qa, fleet_telemetry=fleet_telemetry
    )
    if strict and result.qa_failures:
        raise qa_module.WarehouseQaError(result.qa_failures)
    return result


def _commit_cell(
    matrix: MatrixConfig,
    conn: sqlite3.Connection,
    mid: str,
    order: int,
    cell: MatrixCell,
    campaign,
    strict: bool,
    metrics_dir: Optional[Path],
    log: Optional[Callable[[str], None]],
) -> MatrixCellResult:
    """Load one cell's campaign and write its ledger/metrics artefacts."""
    campaign_id = loader_module.campaign_warehouse_id(campaign.config)

    def on_commit(conn):
        _record_cell(conn, mid, order, cell, campaign_id)

    load = loader_module.load_campaign(
        campaign, conn, strict=strict, on_commit=on_commit
    )
    if metrics_dir is not None:
        safe = cell.cell_id.replace("/", "_")
        write_metrics_json(campaign, metrics_dir / f"{safe}.metrics.json")
    if log is not None:
        log(
            f"cell {order + 1}/{len(matrix.cells)} {cell.cell_id}:"
            f" {load.total_rows} rows, {len(load.qa_failures)} QA failures"
        )
    return MatrixCellResult(cell=cell, campaign_id=load.campaign_id, load=load)


def _run_cells_sequential(
    matrix: MatrixConfig,
    conn: sqlite3.Connection,
    mid: str,
    strict: bool,
    metrics_dir: Optional[Path],
    log: Optional[Callable[[str], None]],
) -> List[MatrixCellResult]:
    results: List[MatrixCellResult] = []
    for order, cell in enumerate(matrix.cells):
        campaign = Campaign(
            _cell_config(matrix, cell),
            workers=matrix.workers,
            cache_dir=matrix.cache_dir,
        )
        try:
            results.append(
                _commit_cell(
                    matrix, conn, mid, order, cell, campaign, strict, metrics_dir, log
                )
            )
        finally:
            campaign.close()
    return results


def _run_cells_fleet(
    matrix: MatrixConfig,
    conn: sqlite3.Connection,
    mid: str,
    strict: bool,
    metrics_dir: Optional[Path],
    log: Optional[Callable[[str], None]],
    fleet_jobs: int,
) -> Tuple[List[MatrixCellResult], dict]:
    """Run the cells on a fleet scheduler; commits stay in cell order.

    The fleet creates each cell's campaign as it enters the in-flight
    window and releases it once committed, so the parent holds
    ``jobs + 1`` cells, not all of them.  It creates the first cell
    before its pool forks, and that cell builds the shared world, so
    the workers inherit it copy-on-write instead of rebuilding.
    """
    from repro.parallel.fleet import FleetScheduler

    fleet = FleetScheduler(
        jobs=fleet_jobs,
        campaign_workers=matrix.workers if matrix.workers is not None else 1,
    )

    def commit(order, campaign):
        return _commit_cell(
            matrix,
            conn,
            mid,
            order,
            matrix.cells[order],
            campaign,
            strict,
            metrics_dir,
            log,
        )

    try:
        configs = [_cell_config(matrix, cell) for cell in matrix.cells]
        results = fleet.execute(configs, commit, cache_dir=matrix.cache_dir)
        return results, fleet.telemetry()
    finally:
        fleet.close()
