"""QScanner: the stateful QUIC scanner (§3.4).

Completes full QUIC handshakes with targets — IP addresses alone or
(address, domain) pairs with the domain as SNI — and extracts:

- the handshake outcome class (Table 3: success / timeout / crypto
  error 0x128 / version mismatch / other),
- TLS properties: version, cipher, key-exchange group, certificate,
  echoed extensions (§5.1 comparisons against TLS-over-TCP),
- the server's QUIC transport parameters (§5.2 fingerprinting),
- HTTP/3 response headers from a HEAD request (``server`` values).

Like the published QScanner, only targets announcing a compatible
version are attempted (the campaign pre-filters), and the scanner
supports restricting its own version set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.crypto.rand import DeterministicRandom
from repro.http import h3
from repro.netsim.addresses import Address
from repro.netsim.topology import Network
from repro.observability.metrics import DEFAULT_COUNT_BUCKETS, get_metrics
from repro.observability.tracing import get_tracer
from repro.quic.connection import (
    HandshakeTimeout,
    QuicClientConfig,
    QuicClientConnection,
    VersionMismatchError,
)
from repro.quic.errors import QuicError
from repro.quic.transport_params import TransportParameters
from repro.quic.versions import QSCANNER_SUPPORTED, QUIC_V1, alpn_for_version
from repro.scanners.results import QScanOutcome, QScanRecord, TargetSource, table3_bucket
from repro.scanners.retry import RetryPolicy, retry_target
from repro.tls.certificates import Certificate
from repro.tls.engine import TlsClientConfig, scanner_tls_kwargs

__all__ = ["QScanner", "QScannerConfig"]

_REQUEST_STREAM = 0
_CONTROL_STREAM = 2


def _timed_out(record: QScanRecord) -> bool:
    return record.outcome is QScanOutcome.TIMEOUT


@dataclass
class QScannerConfig:
    """Scanner configuration mirroring the published tool's options."""

    versions: Sequence[int] = (QUIC_V1,)
    alpn: Sequence[str] = ("h3", "h3-34", "h3-32", "h3-29")
    cipher_suites: Sequence = ()
    groups: Sequence[int] = ()
    transport_params: TransportParameters = field(
        default_factory=lambda: TransportParameters(
            max_idle_timeout=30_000,
            max_udp_payload_size=1452,
            initial_max_data=786_432,
            initial_max_stream_data_bidi_local=524_288,
            initial_max_stream_data_bidi_remote=524_288,
            initial_max_stream_data_uni=524_288,
            initial_max_streams_bidi=100,
            initial_max_streams_uni=100,
        )
    )
    timeout: float = 3.0
    http3_head_request: bool = True
    trusted_roots: Sequence[Certificate] = ()
    fast_initial_protection: bool = False
    # Extension E1: after a successful handshake, collect a session
    # ticket and attempt a resumed (and, if permitted, 0-RTT)
    # connection, recording support on the scan record.
    test_resumption: bool = False
    seed: object = "qscanner"
    # Retry/backoff policy; the default (attempts=1) never retries, so
    # baseline campaigns are unchanged.  Timeouts are the only
    # retryable outcome — every other class is a definitive answer.
    retry: RetryPolicy = field(default_factory=RetryPolicy)


class QScanner:
    """The stateful QUIC scanner over the simulated network."""

    def __init__(self, network: Network, source_address: Address, config: QScannerConfig):
        self._network = network
        self._source = source_address
        self._config = config
        self._rng = DeterministicRandom(config.seed)
        self._counter = 0
        # Metric handles resolve once against the registry current at
        # construction time (the campaign installs its own around each
        # stage), so the per-scan cost is one dict-free update.
        self._metrics = get_metrics()
        self._rtt_histogram = self._metrics.histogram("quic.handshake_rtt_seconds")
        self._datagrams_histogram = self._metrics.histogram(
            "quic.datagrams_per_connection", buckets=DEFAULT_COUNT_BUCKETS
        )
        # Batched hot path: per-connection invariants are computed once
        # per scanner instead of once per scan.  The ECDH key shares and
        # initial CIDs come from a labelled child generator, so the
        # per-target rng streams (child(counter)) are unaffected and
        # shard workers derive the identical batch context.
        batch_rng = self._rng.child("batch")
        self._tls_kwargs = scanner_tls_kwargs(
            config.cipher_suites, config.groups, batch_rng
        )
        self._initial_cids = (batch_rng.token(8), batch_rng.token(8))
        self._control_stream_bytes = (
            h3.encode_control_stream({0x06: 16384})
            if config.http3_head_request
            else b""
        )
        self._trusted_roots = tuple(config.trusted_roots)
        self._alpn = tuple(config.alpn)
        self._versions = tuple(config.versions)

    def seek(self, counter: int) -> None:
        """Position the per-target rng counter.

        Shard workers scanning the slice ``targets[lo:hi]`` call
        ``seek(lo)`` so each target gets the same child generator it
        would get in a serial scan of the full list.
        """
        self._counter = counter

    def scan(
        self,
        address: Address,
        sni: Optional[str] = None,
        source: TargetSource = TargetSource.ZMAP_DNS,
        port: int = 443,
    ) -> QScanRecord:
        """Scan one target; never raises — outcomes are classified.

        With a retry-enabled policy, timeout outcomes are retried with
        deterministic backoff (virtual time only) until the attempt or
        deadline budget is spent; wire-cost tallies accumulate across
        every attempt, matching what the target actually received.
        """
        self._counter += 1
        counter = self._counter
        policy = self._config.retry
        with get_tracer().span("quic.handshake", target=str(address)) as span:
            start = self._network.now
            record = self._scan(address, sni, source, port, self._rng.child(counter))
            if policy.enabled:

                def attempt(rng, previous):
                    retried = self._scan(address, sni, source, port, rng)
                    retried.datagrams_sent += previous.datagrams_sent
                    retried.datagrams_received += previous.datagrams_received
                    return retried

                record = retry_target(
                    policy, record, attempt, _timed_out, self._rng, counter,
                    self._network, start, self._metrics, "quic",
                )
            span.tag(
                outcome=record.outcome.value,
                sni=record.sni,
                version=record.quic_version,
                error_code=record.error_code,
                datagrams=record.datagrams_sent + record.datagrams_received,
            )
        self._observe(record)
        return record

    def _observe(self, record: QScanRecord) -> None:
        """Record the Table-3-style bookkeeping for one scan."""
        metrics = self._metrics
        metrics.counter("quic.handshakes", outcome=record.outcome.value).inc()
        if record.error_code is not None:
            metrics.counter("quic.close_codes", code=f"0x{record.error_code:x}").inc()
        if record.version_negotiation_seen or record.outcome is QScanOutcome.VERSION_MISMATCH:
            metrics.counter("quic.version_negotiation_seen").inc()
        if record.retry_seen:
            metrics.counter("quic.retry_received").inc()
        if record.quic_version is not None:
            metrics.counter("quic.negotiated_version", version=f"0x{record.quic_version:08x}").inc()
        if record.handshake_rtt is not None:
            self._rtt_histogram.observe(record.handshake_rtt)
        self._datagrams_histogram.observe(
            record.datagrams_sent + record.datagrams_received
        )

    def _scan(
        self,
        address: Address,
        sni: Optional[str],
        source: TargetSource,
        port: int,
        rng: DeterministicRandom,
    ) -> QScanRecord:
        record = QScanRecord(address=address, sni=sni, source=source)

        streams: Dict[int, bytes] = {}
        if self._config.http3_head_request:
            streams[_REQUEST_STREAM] = h3.encode_head_request(sni or str(address))
            streams[_CONTROL_STREAM] = self._control_stream_bytes

        quic_config = QuicClientConfig(
            versions=self._versions,
            tls=TlsClientConfig(
                server_name=sni,
                alpn=self._alpn,
                transport_params=self._config.transport_params,
                trusted_roots=self._trusted_roots,
                **self._tls_kwargs,
            ),
            timeout=self._config.timeout,
            application_streams=streams,
            fast_initial_protection=self._config.fast_initial_protection,
            collect_session_ticket=self._config.test_resumption,
            initial_cids=self._initial_cids,
        )
        connection = QuicClientConnection(
            self._network, self._source, address, port, quic_config, rng
        )
        try:
            result = connection.connect()
        except Exception as error:
            # The shared Table-3 decision procedure classifies every
            # failure (including corrupted/truncated datagrams from
            # faulty paths) rather than crashing the stage.
            record.outcome = table3_bucket(error)
            if isinstance(error, QuicError):
                record.error_code = error.error_code
                record.error_reason = error.reason
            elif not isinstance(error, (VersionMismatchError, HandshakeTimeout)):
                record.error_reason = f"protocol-error:{type(error).__name__}"
            self._record_wire_cost(record, connection)
            return record

        record.outcome = QScanOutcome.SUCCESS
        record.quic_version = result.version
        record.handshake_rtt = result.handshake_rtt
        record.version_negotiation_seen = result.version_negotiation_seen
        record.retry_seen = result.retry_seen
        record.datagrams_sent = result.datagrams_sent
        record.datagrams_received = result.datagrams_received
        tls = result.tls
        record.tls_version = tls.tls_version
        record.cipher_suite = tls.cipher_suite
        record.key_exchange_group = tls.key_exchange_group
        record.server_extensions = tuple(
            name
            for name in tls.server_extensions
            # The paper excludes the QUIC-only transport parameter
            # extension from the TCP comparison (§5.1).
            if not name.startswith("quic_transport_parameters")
        )
        record.sni_echoed = tls.sni_echoed
        record.alpn = tls.alpn
        if tls.server_certificates:
            leaf = tls.server_certificates[0]
            record.certificate_fingerprint = leaf.fingerprint()
            record.certificate_subject = leaf.subject
        params = result.transport_params
        if params is not None:
            record.transport_params_fingerprint = params.fingerprint()
            record.max_udp_payload_size = params.max_udp_payload_size
            record.initial_max_data = params.initial_max_data
        response_data = result.streams.get(_REQUEST_STREAM)
        if response_data:
            try:
                response = h3.decode_response(response_data)
            except h3.H3Error:
                response = None
            if response is not None:
                record.http_status = response.status
                record.server_header = response.header("server")
        if self._config.test_resumption:
            self._probe_resumption(record, result, quic_config, address, port, rng)
        return record

    @staticmethod
    def _record_wire_cost(record: QScanRecord, connection: QuicClientConnection) -> None:
        """Wire tallies for failed attempts (no result object exists)."""
        record.datagrams_sent = connection.datagrams_sent
        record.datagrams_received = connection.datagrams_received

    def _probe_resumption(
        self,
        record: QScanRecord,
        result,
        quic_config: QuicClientConfig,
        address: Address,
        port: int,
        rng: DeterministicRandom,
    ) -> None:
        """Attempt a resumed (and 0-RTT) connection with the collected
        ticket (extension E1)."""
        ticket = result.session_ticket
        if ticket is None:
            record.resumption_supported = False
            record.early_data_supported = False
            return
        resume_config = QuicClientConfig(
            versions=quic_config.versions,
            tls=TlsClientConfig(
                server_name=quic_config.tls.server_name,
                alpn=quic_config.tls.alpn,
                cipher_suites=quic_config.tls.cipher_suites,
                groups=quic_config.tls.groups,
                transport_params=quic_config.tls.transport_params,
                session_ticket=ticket,
                offer_early_data=ticket.allows_early_data,
            ),
            timeout=self._config.timeout,
            application_streams=dict(quic_config.application_streams),
            fast_initial_protection=quic_config.fast_initial_protection,
            use_early_data=ticket.allows_early_data,
        )
        connection = QuicClientConnection(
            self._network, self._source, address, port, resume_config, rng.child("resume")
        )
        try:
            resumed = connection.connect()
        except Exception:  # any failure mode: resumption unsupported
            record.resumption_supported = False
            record.early_data_supported = False
            return
        record.resumption_supported = bool(resumed.tls.resumed)
        record.early_data_supported = bool(
            resumed.early_data_sent and resumed.early_data_accepted
        )
