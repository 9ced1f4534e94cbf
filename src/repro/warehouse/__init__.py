"""Results warehouse: a sqlite-backed staging → mart analytics layer.

The in-memory analysis layer (:mod:`repro.analysis`) re-joins Python
record lists per run, which caps campaign scale at RAM and makes
cross-campaign queries impossible.  This package persists every
stage's records into typed *staging* tables keyed by
``(campaign_id, stage, position)``, runs QA integrity checks recorded
in ``qa_results``, and stores the paper's tables as *marts*:
``mart_table1_targets`` … ``mart_table6_fingerprints`` hold the rows
:mod:`repro.experiments.tables` computes for the loaded campaign, and
the version-deployment and outcome-mix marts are aggregated from
staging.

- :mod:`repro.warehouse.schema` — DDL plus the data dictionary
  (``docs/WAREHOUSE.md`` is checked against it),
- :mod:`repro.warehouse.loader` — idempotent campaign ingestion,
- :mod:`repro.warehouse.qa` — integrity checks (row counts, join-key
  coverage, NULL-rate gates, stored marts read back against the
  in-memory tables, stage health),
- :mod:`repro.warehouse.marts` — the mart writers and the one reader
  of every ``(key, row_order)`` table,
- :mod:`repro.warehouse.queries` — the table of named reports and the
  raw-SQL escape hatch behind ``repro query``,
- :mod:`repro.warehouse.timeline` — run-scoped cross-week timeline
  marts appended by the longitudinal scheduler (the per-week rows of
  Figures 3 and 5-7, plus per-provider churn).

The longitudinal run ledger (``runs``/``run_weeks``, see
:mod:`repro.longitudinal.ledger`) lives in the same database so week
checkpoints commit atomically with the week's staging load.
"""

from repro.warehouse.loader import LoadResult, campaign_warehouse_id, load_campaign
from repro.warehouse.qa import QaResult, WarehouseQaError, run_qa
from repro.warehouse.schema import (
    LEDGER_TABLES,
    SCHEMA_VERSION,
    TABLES,
    TIMELINE_TABLES,
    connect,
    ensure_schema,
)
from repro.warehouse.marts import mart_rows
from repro.warehouse.timeline import append_week_timelines

__all__ = [
    "SCHEMA_VERSION",
    "TABLES",
    "LEDGER_TABLES",
    "TIMELINE_TABLES",
    "connect",
    "ensure_schema",
    "LoadResult",
    "campaign_warehouse_id",
    "load_campaign",
    "QaResult",
    "WarehouseQaError",
    "run_qa",
    "append_week_timelines",
    "mart_rows",
]
