"""The conformance report: vectors + fuzz + differential, one verdict.

``repro conform`` assembles three evidence streams — the golden-vector
corpus, the deterministic fuzz campaign, and the serial-vs-parallel
differential replay — into a single deterministic text report and a
machine-readable JSON document.  Nothing time- or host-dependent goes
into either: two runs with the same seed and iteration count produce
byte-identical output, which is itself part of the conformance
contract (asserted in ``tests/test_conformance.py``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.analysis.tables import render_table
from repro.conformance.differential import DifferentialResult, FleetDifferentialResult
from repro.conformance.fuzzer import FuzzResult
from repro.conformance.vectors import VectorResult
from repro.observability.metrics import parse_metric_key

__all__ = [
    "CONFORMANCE_FORMAT_VERSION",
    "build_conformance_report",
    "conformance_document",
    "render_conformance_json",
    "write_conformance_json",
    "conformance_ok",
]

CONFORMANCE_FORMAT_VERSION = 1


def conformance_ok(
    vectors: List[VectorResult],
    fuzz: FuzzResult,
    differential: Optional[DifferentialResult],
    fleet: Optional[FleetDifferentialResult] = None,
) -> bool:
    """The exit-code predicate: everything green (or skipped)."""
    if any(not result.ok for result in vectors):
        return False
    if not fuzz.ok:
        return False
    if differential is not None and not differential.ok:
        return False
    if fleet is not None and not fleet.ok:
        return False
    return True


def _fuzz_rows(fuzz: FuzzResult) -> List[tuple]:
    counters = fuzz.registry.snapshot()["counters"]
    modules: Dict[str, Dict[str, int]] = {}
    for key, value in counters.items():
        name, labels = parse_metric_key(key)
        if not name.startswith("conform.fuzz_"):
            continue
        module = labels.get("module", "?")
        modules.setdefault(module, {})[name[len("conform.fuzz_") :]] = value
    rows = []
    for module in sorted(modules):
        tallies = modules[module]
        rows.append(
            (
                module,
                tallies.get("ok", 0),
                tallies.get("rejects", 0),
                tallies.get("crashes", 0),
            )
        )
    return rows


def build_conformance_report(
    vectors: List[VectorResult],
    fuzz: FuzzResult,
    differential: Optional[DifferentialResult],
    fleet: Optional[FleetDifferentialResult] = None,
) -> str:
    """Render the deterministic human-readable conformance report."""
    lines: List[str] = []
    lines.append(
        f"conformance report — seed {fuzz.seed}, "
        f"{fuzz.iterations} fuzz iterations"
    )
    lines.append("")

    # -- golden vectors -------------------------------------------------------
    passed = sum(1 for result in vectors if result.ok)
    lines.append(f"golden vectors: {passed}/{len(vectors)} ok")
    for result in vectors:
        if not result.ok:
            lines.append(f"  FAIL {result.name} [{result.group}]: {result.error}")
    lines.append("")

    # -- fuzz campaign --------------------------------------------------------
    lines.append(
        render_table(
            ("module", "parsed ok", "typed rejects", "crashes"),
            _fuzz_rows(fuzz),
            title="deterministic fuzz campaign",
        )
    )
    for crash in fuzz.crashes:
        lines.append(f"  CRASH {crash.repro_hint(fuzz.seed)}")
    lines.append("")

    # -- differential oracle --------------------------------------------------
    if differential is None:
        lines.append("differential: skipped")
    elif differential.ok:
        lines.append(
            f"differential: serial == {differential.workers}-worker campaign "
            f"({differential.records_compared} records over "
            f"{len(differential.stage_records)} stages; metrics.json byte-identical)"
        )
    else:
        lines.append(
            f"differential: FAILED against {differential.workers} workers"
        )
        for mismatch in differential.mismatches:
            lines.append(f"  DIFF {mismatch}")
    lines.append("")

    # -- fleet oracle ---------------------------------------------------------
    if fleet is not None:
        if fleet.ok:
            lines.append(
                f"fleet: sequential == fleet({fleet.jobs} jobs) matrix"
                f" ({fleet.cells} cells; db and metrics.json byte-identical;"
                f" {fleet.world_reuse_hits} world reuse hits,"
                f" {fleet.pool_respawns} pool respawns)"
            )
        else:
            lines.append(f"fleet: FAILED against {fleet.jobs} jobs")
            for mismatch in fleet.mismatches:
                lines.append(f"  DIFF {mismatch}")
        lines.append("")

    verdict = "OK" if conformance_ok(vectors, fuzz, differential, fleet) else "FAILED"
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines)


def conformance_document(
    vectors: List[VectorResult],
    fuzz: FuzzResult,
    differential: Optional[DifferentialResult],
    registry,
    fleet: Optional[FleetDifferentialResult] = None,
) -> Dict:
    """The machine-readable conformance ``metrics.json`` document.

    ``registry`` is the merged registry holding both the vector and
    fuzz counters; its non-volatile snapshot is embedded the same way
    the campaign ``metrics.json`` embeds scan counters.
    """
    return {
        "format": CONFORMANCE_FORMAT_VERSION,
        "config": {
            "seed": fuzz.seed,
            "iterations": fuzz.iterations,
            "differential": None
            if differential is None
            else {
                "workers": differential.workers,
                "records_compared": differential.records_compared,
            },
            "fleet": None
            if fleet is None
            else {
                "jobs": fleet.jobs,
                "cells": fleet.cells,
                "world_reuse_hits": fleet.world_reuse_hits,
                "pool_respawns": fleet.pool_respawns,
            },
        },
        "ok": conformance_ok(vectors, fuzz, differential, fleet),
        "vectors": {
            "total": len(vectors),
            "failed": sorted(result.name for result in vectors if not result.ok),
        },
        "crashes": [
            {
                "module": crash.module,
                "iteration": crash.iteration,
                "input": crash.data.hex(),
                "error": crash.error,
            }
            for crash in fuzz.crashes
        ],
        "metrics": registry.snapshot(include_volatile=False),
    }


def render_conformance_json(*args, **kwargs) -> str:
    """Canonical serialisation (sorted keys, stable indentation)."""
    return json.dumps(conformance_document(*args, **kwargs), indent=2, sort_keys=True) + "\n"


def write_conformance_json(path, *args, **kwargs) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_conformance_json(*args, **kwargs))
    return path
