"""The paper's measurement tool set.

- :mod:`repro.scanners.permutation` — ZMap's multiplicative-group
  address permutation and its inverse (address to walk position),
- :mod:`repro.scanners.sweep` — the sweep both ZMap modules share,
  over a prefix or a list: probes the live targets by position,
  counts the rest,
- :mod:`repro.scanners.zmapquic` — the stateless ZMap QUIC module
  (IPv4 full-space and IPv6 hitlist scans, forced version negotiation),
- :mod:`repro.scanners.zmaptcp` — TCP SYN scans on :443,
- :mod:`repro.scanners.dnsscan` — bulk DNS scans for A/AAAA/HTTPS/SVCB,
- :mod:`repro.scanners.goscanner` — stateful TLS-over-TCP scans with
  HTTP requests (Alt-Svc harvesting),
- :mod:`repro.scanners.qscanner` — the stateful QUIC scanner,
- :mod:`repro.scanners.results` — typed result records shared by all.
"""

from repro.scanners.qscanner import QScanner, QScannerConfig
from repro.scanners.results import (
    DnsScanRecord,
    GoscannerRecord,
    QScanOutcome,
    QScanRecord,
    ZmapQuicRecord,
)
from repro.scanners.zmapquic import ZmapQuicScanner

__all__ = [
    "QScanner",
    "QScannerConfig",
    "QScanOutcome",
    "QScanRecord",
    "ZmapQuicScanner",
    "ZmapQuicRecord",
    "GoscannerRecord",
    "DnsScanRecord",
]
