"""TLS-over-TCP servers on port 443.

These are the peers of the Goscanner-style stateful TLS scans (§3.3):
after a TLS 1.3 handshake over the record layer they answer an HTTP/1.1
request whose response headers include ``Server`` and — for QUIC
deployments — ``Alt-Svc``.

Quirks supported (all observed by the paper):

- SNI-dependent certificate selection, including Google's self-signed
  "missing SNI" error certificate on TCP only,
- deployments with TLS 1.3 disabled on TCP while QUIC is enabled
  (possible with Cloudflare, §5.1): modelled as a legacy TLS 1.2
  ServerHello (no ``supported_versions``) followed by a plaintext
  certificate, after which the scanner records the version and aborts,
- servers that do not echo the SNI extension acknowledgement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.crypto.rand import DeterministicRandom, seed_value
from repro.http.h1 import HttpParseError, HttpRequest, HttpResponse
from repro.netsim.topology import TcpListener, TcpSession
from repro.tls.alerts import AlertDescription, AlertError
from repro.tls.engine import TlsServerConfig, TlsServerSession
from repro.tls.messages import (
    CertificateMessage,
    HandshakeType,
    ServerHello,
    iter_messages,
)
from repro.tls.record import ContentType, RecordLayer, RecordProtection, encode_alert

__all__ = ["Tcp443Config", "Tcp443Server", "LEGACY_TLS12_CIPHER"]

# TLS_RSA_WITH_AES_128_GCM_SHA256 — a typical TLS 1.2 suite id.
LEGACY_TLS12_CIPHER = 0x009C


@dataclass
class Tcp443Config:
    tls: TlsServerConfig = field(default_factory=TlsServerConfig)
    # (request, sni) -> response; supplies Server/Alt-Svc headers.
    http_handler: Optional[Callable[[HttpRequest, Optional[str]], HttpResponse]] = None
    tls13_enabled: bool = True
    seed: object = "tcp443"


class Tcp443Server(TcpListener):
    """A TLS 1.3 (or legacy) HTTPS server bound to one address."""

    def __init__(self, config: Tcp443Config, certificate=None):
        self._config = config
        # The (chain, key) served where the shared TLS config's selector
        # names none: what makes this address's server its own.
        self._certificate = certificate
        self._seed = seed_value(config.seed)  # a 2.5 KB generator only to derive children
        self._counter = 0

    # -- TcpListener interface ------------------------------------------------
    def session_opened(self, session: TcpSession) -> None:
        self._counter += 1
        session.context["tls"] = None
        session.context["records"] = RecordLayer()
        # What ``DeterministicRandom(seed).child(counter)`` returns.
        session.context["rng"] = DeterministicRandom((self._seed, self._counter))

    def session_closed(self, session: TcpSession) -> None:
        session.context.clear()

    def data_received(self, session: TcpSession, data: bytes) -> None:
        records: RecordLayer = session.context["records"]
        try:
            for content_type, payload in records.unwrap(data):
                if content_type == ContentType.HANDSHAKE:
                    self._handle_handshake(session, payload)
                elif content_type == ContentType.APPLICATION_DATA:
                    self._handle_http(session, payload)
        except AlertError as alert:
            if not alert.remote:
                session.reply(records.wrap_alert(alert.description))
            session.server_close()

    # -- handshake ---------------------------------------------------------------
    def _handle_handshake(self, session: TcpSession, payload: bytes) -> None:
        records: RecordLayer = session.context["records"]
        tls: Optional[TlsServerSession] = session.context["tls"]
        if tls is None:
            tls = TlsServerSession(self._config.tls, session.context["rng"], self._certificate)
            session.context["tls"] = tls
            if not self._config.tls13_enabled:
                self._legacy_tls12_flight(session, tls, payload)
                return
            flight = tls.process_client_hello(payload)
            session.reply(records.wrap_handshake(flight.server_hello))
            assert tls.suite is not None and tls.handshake_secrets is not None
            records.send_protection = RecordProtection(
                tls.suite, tls.handshake_secrets.server
            )
            session.reply(records.wrap_handshake(flight.encrypted_flight))
            records.recv_protection = RecordProtection(
                tls.suite, tls.handshake_secrets.client
            )
        else:
            tls.process_client_finished(payload)
            assert tls.suite is not None and tls.application_secrets is not None
            records.send_protection = RecordProtection(
                tls.suite, tls.application_secrets.server
            )
            records.recv_protection = RecordProtection(
                tls.suite, tls.application_secrets.client
            )

    def _legacy_tls12_flight(
        self, session: TcpSession, tls: TlsServerSession, client_hello: bytes
    ) -> None:
        """A TLS 1.2 first flight: ServerHello without supported_versions
        plus a plaintext Certificate.  The scanner records the version
        and certificate, then closes — sufficient for every analysis the
        paper performs on such targets."""
        records: RecordLayer = session.context["records"]
        messages = list(iter_messages(client_hello))
        if not messages or messages[0][0] != HandshakeType.CLIENT_HELLO:
            raise AlertError(AlertDescription.UNEXPECTED_MESSAGE, "expected ClientHello")
        from repro.tls.messages import ClientHello

        hello = ClientHello.decode(messages[0][1])
        from repro.tls.extensions import ExtensionType, decode_sni

        sni_data = hello.extension(ExtensionType.SERVER_NAME)
        sni = decode_sni(sni_data) if sni_data else None
        chain, _key = tls.select_certificate(sni)
        server_hello = ServerHello(
            random=session.context["rng"].token(32),
            cipher_suite=LEGACY_TLS12_CIPHER,
            extensions=[],  # no supported_versions => TLS 1.2
            legacy_session_id=hello.legacy_session_id,
        ).encode()
        cert_msg = CertificateMessage(chain=list(chain)).encode()
        session.reply(records.wrap_handshake(server_hello))
        session.reply(records.wrap_handshake(cert_msg))

    # -- HTTP ------------------------------------------------------------------
    def _handle_http(self, session: TcpSession, payload: bytes) -> None:
        records: RecordLayer = session.context["records"]
        tls: Optional[TlsServerSession] = session.context["tls"]
        try:
            request = HttpRequest.decode(payload)
        except HttpParseError:
            session.reply(records.wrap_alert(AlertDescription.UNEXPECTED_MESSAGE))
            session.server_close()
            return
        sni = tls.client_sni if tls is not None else None
        if self._config.http_handler is not None:
            response = self._config.http_handler(request, sni)
        else:
            response = HttpResponse(status=404, reason="Not Found")
        if response.header("content-length") is None:
            response.headers.append(("Content-Length", str(len(response.body))))
        session.reply(records.wrap_application_data(response.encode()))
