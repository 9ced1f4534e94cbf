"""Typed result records produced by the scanners.

Each scanner emits flat records; the analysis layer joins and
aggregates them.  Keeping these as plain dataclasses (rather than
dicts) gives the pipeline a checked schema and makes tests precise.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import Dict, Iterable, Optional, Tuple

from repro.http.altsvc import AltSvcEntry
from repro.netsim.addresses import Address, IPv4Address, IPv6Address

__all__ = [
    "ZmapQuicRecord",
    "SynRecord",
    "DnsScanRecord",
    "DnsListRecords",
    "DnsRecordsView",
    "GoscannerRecord",
    "QScanOutcome",
    "QScanRecord",
    "TargetSource",
    "table3_bucket",
]


class TargetSource(str, Enum):
    """Which discovery method produced a stateful-scan target."""

    ZMAP_DNS = "zmap+dns"
    ALT_SVC = "alt-svc"
    HTTPS_RR = "https-rr"


@dataclass(frozen=True)
class ZmapQuicRecord:
    """One responding address from the stateless ZMap QUIC module."""

    address: Address
    versions: Tuple[int, ...]  # versions listed in the VN packet


@dataclass(frozen=True)
class SynRecord:
    address: Address
    port: int
    open: bool


@dataclass
class DnsScanRecord:
    """Resolution outcome for one domain from one input list."""

    domain: str
    source_list: str
    a: Tuple[IPv4Address, ...] = ()
    aaaa: Tuple[IPv6Address, ...] = ()
    https_alpn: Tuple[str, ...] = ()
    https_ipv4hints: Tuple[IPv4Address, ...] = ()
    https_ipv6hints: Tuple[IPv6Address, ...] = ()
    has_https_rr: bool = False


class _RecordSequence(Sequence):
    """List behaviour from ``__len__`` and ``_at``: slices are lists, ``==`` takes a list."""

    def __getitem__(self, index):
        positions = range(len(self))[index]
        if isinstance(index, slice):
            return [self._at(position) for position in positions]
        return self._at(positions)

    def __eq__(self, other):
        if not isinstance(other, (list, _RecordSequence)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))


class DnsListRecords(_RecordSequence):
    """One input list's DNS scan: a record per listed name, in list order.

    Most listed names answer nothing (§3.2, Fig. 3), so only an answered
    name keeps its record, by position; any other reads back as the
    two-field ``DnsScanRecord(name, source_list)``.  ``names`` is not copied.
    """

    def __init__(
        self, source_list: str, names: Sequence[str], answered: Dict[int, DnsScanRecord]
    ):
        self.source_list = source_list
        self.names = names
        self.answered = answered  # position -> record, in position order

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return map(self._at, range(len(self.names)))

    def _at(self, position: int) -> DnsScanRecord:
        record = self.answered.get(position)
        if record is None:
            return DnsScanRecord(self.names[position], self.source_list)
        return record


class DnsRecordsView(_RecordSequence):
    """Several lists' records end to end; it holds the lists, nothing else."""

    def __init__(self, lists: Iterable[DnsListRecords]):
        self.lists = tuple(lists)

    def __len__(self) -> int:
        return sum(map(len, self.lists))

    def __iter__(self):
        return chain.from_iterable(self.lists)

    def _at(self, position: int) -> DnsScanRecord:
        for records in self.lists:
            if position < len(records):
                return records[position]
            position -= len(records)


@dataclass
class GoscannerRecord:
    """Stateful TLS-over-TCP scan result for one (address, SNI) target."""

    address: Address
    sni: Optional[str]
    success: bool = False
    tls_version: Optional[str] = None
    cipher_suite: Optional[str] = None
    key_exchange_group: Optional[str] = None
    certificate_fingerprint: Optional[str] = None
    certificate_self_signed: bool = False
    certificate_subject: Optional[str] = None
    server_extensions: Tuple[str, ...] = ()
    sni_echoed: bool = False
    alpn: Optional[str] = None
    http_status: Optional[int] = None
    server_header: Optional[str] = None
    alt_svc: Tuple[AltSvcEntry, ...] = ()
    error: Optional[str] = None
    # Connection attempts spent on this target (1 = no retries).
    attempts: int = 1


class QScanOutcome(str, Enum):
    """Stateful QUIC scan outcome classes, in the paper's Table 3 row order.

    Iterating the enum is the one outcome order: Table 3's rows, the
    ``mart_outcome_mix`` rows, the ``mart_matrix_outcomes`` columns and
    the scan report's outcome columns all follow it.
    """

    SUCCESS = "success"
    TIMEOUT = "timeout"
    CRYPTO_ERROR_0X128 = "crypto-error-0x128"
    VERSION_MISMATCH = "version-mismatch"
    OTHER = "other"


def table3_bucket(error: BaseException) -> "QScanOutcome":
    """The paper Table-3 failure bucket for a handshake exception.

    Every exception class the QUIC/TLS stack can surface maps into
    exactly one of the four failure buckets (SUCCESS is, by
    construction, not an error class); QScanner and the conformance
    suite both use this single decision procedure so the
    classification can never drift between them.
    """
    from repro.quic.connection import HandshakeTimeout, VersionMismatchError
    from repro.quic.errors import CRYPTO_ERROR_HANDSHAKE_FAILURE, QuicError, crypto_error
    from repro.tls.alerts import AlertError

    if isinstance(error, VersionMismatchError):
        return QScanOutcome.VERSION_MISMATCH
    if isinstance(error, HandshakeTimeout):
        return QScanOutcome.TIMEOUT
    if isinstance(error, QuicError):
        if error.error_code == CRYPTO_ERROR_HANDSHAKE_FAILURE:
            return QScanOutcome.CRYPTO_ERROR_0X128
        return QScanOutcome.OTHER
    if isinstance(error, AlertError):
        # A raw TLS alert carried over QUIC surfaces as crypto error
        # 0x100 + alert; only handshake_failure lands in the paper's
        # dedicated 0x128 column.
        if crypto_error(int(error.description)) == CRYPTO_ERROR_HANDSHAKE_FAILURE:
            return QScanOutcome.CRYPTO_ERROR_0X128
        return QScanOutcome.OTHER
    # Malformed wire data, protocol errors, fault-injected garbage.
    return QScanOutcome.OTHER


@dataclass
class QScanRecord:
    """Stateful QUIC scan result for one (address, SNI, source) target."""

    address: Address
    sni: Optional[str]
    source: TargetSource
    outcome: QScanOutcome = QScanOutcome.OTHER
    quic_version: Optional[int] = None
    error_code: Optional[int] = None
    error_reason: Optional[str] = None
    # TLS properties (Table 5 comparisons)
    tls_version: Optional[str] = None
    cipher_suite: Optional[str] = None
    key_exchange_group: Optional[str] = None
    certificate_fingerprint: Optional[str] = None
    certificate_subject: Optional[str] = None
    server_extensions: Tuple[str, ...] = ()
    sni_echoed: bool = False
    alpn: Optional[str] = None
    # QUIC transport parameters (§5.2 fingerprinting)
    transport_params_fingerprint: Optional[Tuple] = None
    max_udp_payload_size: Optional[int] = None
    initial_max_data: Optional[int] = None
    # HTTP/3
    http_status: Optional[int] = None
    server_header: Optional[str] = None
    handshake_rtt: Optional[float] = None
    version_negotiation_seen: bool = False
    # Wire cost of the connection attempt (all VN/Retry restarts
    # included) — the observability layer histograms these.
    retry_seen: bool = False
    datagrams_sent: int = 0
    datagrams_received: int = 0
    # Connection attempts spent on this target (1 = no retries); wire
    # tallies above accumulate across every attempt.
    attempts: int = 1
    # Extension E1 (resumption probing): None when not tested.
    resumption_supported: Optional[bool] = None
    early_data_supported: Optional[bool] = None

    @property
    def is_success(self) -> bool:
        return self.outcome is QScanOutcome.SUCCESS
