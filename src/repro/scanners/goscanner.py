"""Stateful TLS-over-TCP scans with HTTP requests (§3.3).

The Goscanner stand-in: completes a TLS 1.3 handshake over the record
layer (recording version, cipher, group, certificate and echoed
extensions), then issues an HTTP/1.1 request and records the
``Server`` and ``Alt-Svc`` response headers.  As in the paper, targets
are scanned twice — once without and once with SNI — and the Client
Hello matches the one the QScanner sends (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.crypto.rand import DeterministicRandom
from repro.http.altsvc import parse_alt_svc
from repro.http.h1 import HttpParseError, HttpRequest, HttpResponse
from repro.netsim.addresses import Address
from repro.netsim.topology import Network
from repro.observability.metrics import get_metrics
from repro.observability.tracing import get_tracer
from repro.scanners.results import GoscannerRecord
from repro.scanners.retry import RetryPolicy
from repro.server.tcp443 import LEGACY_TLS12_CIPHER
from repro.tls.alerts import AlertError
from repro.tls.engine import TlsClientConfig, TlsClientSession, scanner_tls_kwargs
from repro.tls.messages import HandshakeType, ServerHello, iter_messages
from repro.tls.record import ContentType, RecordLayer, RecordProtection

__all__ = ["Goscanner", "GoscannerConfig"]


@dataclass
class GoscannerConfig:
    """Scanner-side TLS configuration (shared shape with QScanner)."""

    alpn: Sequence[str] = ("h2", "http/1.1")
    cipher_suites: Sequence = ()
    groups: Sequence[int] = ()
    timeout: float = 3.0
    request_path: str = "/"
    seed: object = "goscanner"
    # Retry/backoff policy; default attempts=1 keeps baselines intact.
    retry: RetryPolicy = field(default_factory=RetryPolicy)


class Goscanner:
    """Stateful TLS-over-TCP scanner."""

    def __init__(self, network: Network, source_address: Address, config: GoscannerConfig):
        self._network = network
        self._source = source_address
        self._config = config
        self._rng = DeterministicRandom(config.seed)
        self._counter = 0
        # Handles resolved once per scanner against the current registry
        # (the campaign installs its own around each stage).
        self._metrics = get_metrics()
        self._time_histogram = self._metrics.histogram("tls.handshake_time_seconds")
        # As in QScanner: the key shares come from a labelled child
        # generator, once per scanner, so the per-target streams
        # (child(counter)) are those of a serial scan of the full list.
        self._tls_kwargs = scanner_tls_kwargs(
            config.cipher_suites, config.groups, self._rng.child("batch")
        )

    def seek(self, counter: int) -> None:
        """Position the per-target rng counter.

        Shard workers scanning the slice ``targets[lo:hi]`` call
        ``seek(lo)`` so each target gets the same child generator it
        would get in a serial scan of the full list.
        """
        self._counter = counter

    # Timeout-class errors are retryable; alerts and protocol errors
    # are definitive answers from the server.
    _RETRYABLE_ERRORS = frozenset({"connect-timeout", "timeout"})

    def scan(self, address: Address, sni: Optional[str], port: int = 443) -> GoscannerRecord:
        """Scan one target; never raises — failures land in ``record.error``."""
        self._counter += 1
        counter = self._counter
        policy = self._config.retry
        start = self._network.now
        with get_tracer().span("tls.handshake", target=str(address)) as span:
            record = self._scan(address, sni, port, self._rng.child(counter))
            attempts = 1
            if policy.enabled and record.error in self._RETRYABLE_ERRORS:
                jitter_rng = self._rng.child(counter, "retry-jitter")
                while (
                    attempts < policy.attempts
                    and record.error in self._RETRYABLE_ERRORS
                ):
                    delay = policy.backoff(attempts, jitter_rng)
                    if not policy.within_deadline(
                        self._network.now - start + delay
                    ):
                        break
                    self._network.advance_to(self._network.now + delay)
                    record = self._scan(
                        address, sni, port, self._rng.child(counter, "retry", attempts)
                    )
                    attempts += 1
                    self._metrics.counter("tls.retries").inc()
                if record.error in self._RETRYABLE_ERRORS:
                    self._metrics.counter("tls.giveups").inc()
            record.attempts = attempts
            span.tag(outcome=self._outcome(record), sni=record.sni)
        self._observe(record, simulated_seconds=round(self._network.now - start, 9))
        return record

    @staticmethod
    def _outcome(record: GoscannerRecord) -> str:
        """The outcome class tag: error string or success-<tls-version>."""
        if record.error is not None:
            return record.error
        return f"success-{(record.tls_version or 'unknown').lower()}"

    def _observe(self, record: GoscannerRecord, simulated_seconds: float) -> None:
        metrics = self._metrics
        metrics.counter("tls.handshakes", outcome=self._outcome(record)).inc()
        if record.alt_svc:
            metrics.counter("tls.alt_svc_found").inc()
        if record.http_status is not None:
            metrics.counter("tls.http_responses", status=record.http_status).inc()
        self._time_histogram.observe(simulated_seconds)

    def _scan(
        self,
        address: Address,
        sni: Optional[str],
        port: int,
        rng: DeterministicRandom,
    ) -> GoscannerRecord:
        record = GoscannerRecord(address=address, sni=sni)
        session = self._network.connect_tcp(self._source, address, port)
        if session is None:
            record.error = "connect-timeout"
            return record

        tls = TlsClientSession(
            TlsClientConfig(
                server_name=sni, alpn=tuple(self._config.alpn), **self._tls_kwargs
            ),
            rng,
        )
        records = RecordLayer()
        try:
            session.send(records.wrap_handshake(tls.client_hello()))
            handshake_data = b""
            deadline = self._network.now + self._config.timeout
            finished_sent = False
            while not finished_sent:
                chunk = session.receive(max(0.0, deadline - self._network.now))
                if chunk is None:
                    record.error = "timeout"
                    session.close()
                    return record
                for content_type, payload in records.unwrap(chunk):
                    if content_type != ContentType.HANDSHAKE:
                        continue
                    handshake_data += payload
                    consumed = self._drive_handshake(tls, records, record, handshake_data, session)
                    if consumed is None:
                        # Legacy TLS 1.2: collect the plaintext certificate
                        # from the remaining flight, then stop.
                        self._finish_legacy(session, records, record, handshake_data)
                        session.close()
                        return record
                    handshake_data = handshake_data[len(handshake_data) - consumed :]
                    if tls.handshake_complete:
                        finished_sent = True
            record.success = True
            record.tls_version = "TLS1.3"
            result = tls.result
            record.cipher_suite = result.cipher_suite
            record.key_exchange_group = result.key_exchange_group
            record.server_extensions = tuple(result.server_extensions)
            record.sni_echoed = result.sni_echoed
            record.alpn = result.alpn
            if result.server_certificates:
                leaf = result.server_certificates[0]
                record.certificate_fingerprint = leaf.fingerprint()
                record.certificate_subject = leaf.subject
                record.certificate_self_signed = leaf.self_signed
            self._http_request(session, records, record, sni)
        except AlertError as alert:
            record.error = f"alert-{int(alert.description)}"
        except Exception as error:  # garbled bytes from a faulty path
            record.error = f"protocol-error:{type(error).__name__}"
            record.success = False
        finally:
            session.close()
        return record

    def _drive_handshake(
        self,
        tls: TlsClientSession,
        records: RecordLayer,
        record: GoscannerRecord,
        data: bytes,
        session,
    ) -> Optional[int]:
        """Feed buffered handshake bytes into the TLS session.

        Returns the number of unconsumed bytes, or ``None`` when the
        handshake ended on the legacy TLS 1.2 path.
        """
        if tls.suite is None:
            # Expect a ServerHello first.
            messages = list(iter_messages(data))
            if not messages:
                return len(data)
            msg_type, body, raw = messages[0]
            if msg_type != HandshakeType.SERVER_HELLO:
                from repro.tls.alerts import AlertDescription

                raise AlertError(
                    AlertDescription.UNEXPECTED_MESSAGE, "expected ServerHello"
                )
            hello = ServerHello.decode(body)
            from repro.tls.extensions import ExtensionType

            if hello.extension(ExtensionType.SUPPORTED_VERSIONS) is None:
                # No supported_versions: the server negotiated TLS 1.2.
                self._record_legacy(record, data)
                return None
            tls.process_server_hello(raw)
            assert tls.suite is not None and tls.handshake_secrets is not None
            records.recv_protection = RecordProtection(
                tls.suite, tls.handshake_secrets.server
            )
            remainder = data[len(raw) :]
            return len(remainder)
        # Server flight: wait until the Finished message is present.
        try:
            messages = list(iter_messages(data))
        except ValueError:
            return len(data)  # incomplete flight, wait for more records
        if not any(m[0] == HandshakeType.FINISHED for m in messages):
            return len(data)
        finished = tls.process_server_flight(data)
        assert tls.suite is not None
        assert tls.handshake_secrets is not None and tls.application_secrets is not None
        records.send_protection = RecordProtection(tls.suite, tls.handshake_secrets.client)
        session.send(records.wrap_handshake(finished))
        records.send_protection = RecordProtection(
            tls.suite, tls.application_secrets.client
        )
        records.recv_protection = RecordProtection(
            tls.suite, tls.application_secrets.server
        )
        return 0

    def _finish_legacy(
        self, session, records: RecordLayer, record: GoscannerRecord, data: bytes
    ) -> None:
        """Drain the remaining legacy flight to capture the certificate."""
        while record.certificate_fingerprint is None:
            chunk = session.receive(self._config.timeout)
            if chunk is None:
                break
            for content_type, payload in records.unwrap(chunk):
                if content_type == ContentType.HANDSHAKE:
                    data += payload
            self._record_legacy(record, data)

    def _record_legacy(self, record: GoscannerRecord, data: bytes) -> None:
        """Record a TLS 1.2 negotiation (version + certificate)."""
        record.success = True
        record.tls_version = "TLS1.2"
        record.cipher_suite = f"legacy-0x{LEGACY_TLS12_CIPHER:04x}"
        for msg_type, body, _raw in iter_messages(data):
            if msg_type == HandshakeType.CERTIFICATE:
                from repro.tls.messages import CertificateMessage

                chain = CertificateMessage.decode(body).chain
                if chain:
                    record.certificate_fingerprint = chain[0].fingerprint()
                    record.certificate_subject = chain[0].subject
                    record.certificate_self_signed = chain[0].self_signed

    def _http_request(
        self, session, records: RecordLayer, record: GoscannerRecord, sni: Optional[str]
    ) -> None:
        request = HttpRequest(
            method="HEAD",
            target=self._config.request_path,
            headers=[("Host", sni or str(record.address)), ("User-Agent", "goscanner/1.0")],
        )
        session.send(records.wrap_application_data(request.encode()))
        chunk = session.receive(self._config.timeout)
        if chunk is None:
            return
        try:
            for content_type, payload in records.unwrap(chunk):
                if content_type != ContentType.APPLICATION_DATA:
                    continue
                response = HttpResponse.decode(payload)
                record.http_status = response.status
                record.server_header = response.header("server")
                alt_svc = response.header("alt-svc")
                if alt_svc:
                    record.alt_svc = tuple(parse_alt_svc(alt_svc))
        except (AlertError, HttpParseError):
            return
