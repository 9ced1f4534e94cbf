"""Wire-format conformance and deterministic fuzzing (``repro conform``).

The subsystem has four pillars:

* :mod:`repro.conformance.vectors` — golden vectors from RFC 9001
  Appendix A, RFC 9000 Appendix A, and the repo's own canonical
  encoders, each asserting exact encode→bytes and bytes→decode
  behaviour plus pinned regression inputs;
* :mod:`repro.conformance.fuzzer` — a seeded, deterministic
  mutation fuzzer over every parser entry point, with round-trip and
  no-unclassified-exception oracles;
* :mod:`repro.conformance.differential` — a serial-vs-``--workers N``
  campaign replay diffing serialized records and metrics bytes;
* :mod:`repro.conformance.report` — the deterministic text report and
  JSON document fed by the shared :class:`MetricsRegistry` counters.

See ``docs/CONFORMANCE.md`` for vector provenance and the workflow for
pinning a fuzzer-found regression.
"""

from repro.conformance.differential import (
    DifferentialResult,
    FleetDifferentialResult,
    run_differential,
    run_fleet_differential,
)
from repro.conformance.fuzzer import (
    FuzzCrash,
    FuzzResult,
    FuzzTarget,
    build_targets,
    mutate,
    run_fuzz,
)
from repro.conformance.report import (
    CONFORMANCE_FORMAT_VERSION,
    build_conformance_report,
    conformance_document,
    conformance_ok,
    render_conformance_json,
    write_conformance_json,
)
from repro.conformance.rng import XorShift64
from repro.conformance.vectors import GoldenVector, VECTORS, VectorResult, run_vectors

__all__ = [
    "XorShift64",
    "GoldenVector",
    "VectorResult",
    "VECTORS",
    "run_vectors",
    "FuzzTarget",
    "FuzzCrash",
    "FuzzResult",
    "build_targets",
    "mutate",
    "run_fuzz",
    "DifferentialResult",
    "FleetDifferentialResult",
    "run_differential",
    "run_fleet_differential",
    "CONFORMANCE_FORMAT_VERSION",
    "build_conformance_report",
    "conformance_document",
    "conformance_ok",
    "render_conformance_json",
    "write_conformance_json",
]
