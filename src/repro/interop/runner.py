"""The interop matrix: client flavours x server implementations x cases.

Test cases mirror the public Interop Runner's core set:

- ``handshake``          — a plain 1-RTT handshake completes,
- ``transferparams``     — the server's transport parameters arrive,
- ``http3``              — an HTTP/3 HEAD exchange succeeds,
- ``retry``              — the handshake completes through a Retry,
- ``versionnegotiation`` — the client downgrades via a Version
  Negotiation packet and still completes,
- ``chacha20``           — the handshake runs over ChaCha20-Poly1305.

Servers are instantiated from the deployment implementation profiles
(:mod:`repro.server.profiles`); client flavours vary cipher-suite and
key-exchange preferences like distinct client stacks would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.rand import DeterministicRandom
from repro.http import h3
from repro.netsim.addresses import IPv4Address
from repro.netsim.topology import Network
from repro.quic.connection import (
    HandshakeTimeout,
    QuicClientConfig,
    QuicClientConnection,
    QuicServerBehaviour,
    QuicServerEndpoint,
    VersionMismatchError,
)
from repro.quic.errors import QuicError
from repro.quic.transport_params import TransportParameters
from repro.quic.versions import DRAFT_29, QUIC_V1, label_to_version
from repro.server.profiles import PROFILES, ImplementationProfile
from repro.tls.certificates import CertificateAuthority
from repro.tls.ciphersuites import (
    SUITE_AES_128_GCM_SHA256,
    SUITE_CHACHA20_POLY1305_SHA256,
    SUITE_SIM_SHA256,
)
from repro.tls.engine import TlsClientConfig, TlsServerConfig
from repro.tls.extensions import GROUP_SIM, GROUP_X25519

__all__ = ["InteropRunner", "InteropResult", "TEST_CASES", "CLIENT_FLAVOURS"]


@dataclass(frozen=True)
class ClientFlavour:
    name: str
    cipher_suites: Tuple = (SUITE_AES_128_GCM_SHA256,)
    groups: Tuple[int, ...] = (GROUP_X25519,)


CLIENT_FLAVOURS: Tuple[ClientFlavour, ...] = (
    ClientFlavour("aes-x25519"),
    ClientFlavour(
        "chacha-first",
        cipher_suites=(SUITE_CHACHA20_POLY1305_SHA256, SUITE_AES_128_GCM_SHA256),
    ),
    ClientFlavour(
        "fast-sim",
        cipher_suites=(SUITE_SIM_SHA256, SUITE_AES_128_GCM_SHA256),
        groups=(GROUP_SIM, GROUP_X25519),
    ),
)

TEST_CASES: Tuple[str, ...] = (
    "handshake",
    "transferparams",
    "http3",
    "retry",
    "versionnegotiation",
    "chacha20",
    "resumption",
    "zerortt",
)

_TICKET_KEY = b"interop-ticket-key"

# Profiles that cannot complete handshakes at all are excluded from the
# matrix (they model middlebox artefacts, not implementations).
_SERVER_PROFILES: Tuple[str, ...] = (
    "quiche",
    "google-quic",
    "gvs",
    "akamai-quic",
    "fastly-quic",
    "proxygen",
    "lsquic",
    "nginx-quic",
    "caddy",
    "h2o",
    "aioquic-ish",
)


@dataclass
class InteropResult:
    """The matrix: result[(client, server, case)] = passed?"""

    outcomes: Dict[Tuple[str, str, str], bool] = field(default_factory=dict)

    def passed(self, client: str, server: str, case: str) -> bool:
        return self.outcomes.get((client, server, case), False)

    def pass_rate(self) -> float:
        if not self.outcomes:
            return 0.0
        return sum(self.outcomes.values()) / len(self.outcomes)

    def failures(self) -> List[Tuple[str, str, str]]:
        return sorted(key for key, ok in self.outcomes.items() if not ok)

    def render(self) -> str:
        lines = ["interop matrix (rows: server, columns: case; aggregated over clients)"]
        header = f"{'server':<14}" + "".join(f"{case[:12]:>14}" for case in TEST_CASES)
        lines.append(header)
        servers = sorted({server for _c, server, _t in self.outcomes})
        clients = sorted({client for client, _s, _t in self.outcomes})
        for server in servers:
            cells = []
            for case in TEST_CASES:
                results = [self.passed(client, server, case) for client in clients]
                cells.append("pass" if all(results) else ("part" if any(results) else "FAIL"))
            lines.append(f"{server:<14}" + "".join(f"{cell:>14}" for cell in cells))
        lines.append(f"overall pass rate: {self.pass_rate():.0%}")
        return "\n".join(lines)


class InteropRunner:
    """Runs the interop matrix on a dedicated simulated network."""

    def __init__(self, seed: int = 0):
        self._ca = CertificateAuthority(seed=f"interop-{seed}", key_bits=512)
        self._cert, self._key = self._ca.issue(
            "interop.example", ["interop.example"], key_bits=512
        )

    def _server_behaviour(
        self, profile: ImplementationProfile, case: str
    ) -> QuicServerBehaviour:
        suites = (
            SUITE_AES_128_GCM_SHA256,
            SUITE_CHACHA20_POLY1305_SHA256,
            SUITE_SIM_SHA256,
        )

        def select_certificate(sni):
            return [self._cert, self._ca.root], self._key

        def app_handler(alpn, stream_id, data):
            if stream_id % 4 != 0:
                return None
            try:
                h3.decode_request(data)
            except h3.H3Error:
                return None
            headers = [("server", profile.server_header)] if profile.server_header else []
            return h3.encode_response(200, headers)

        versions: Sequence[int] = (QUIC_V1, DRAFT_29)
        if case == "versionnegotiation":
            versions = (QUIC_V1,)
        return QuicServerBehaviour(
            tls=TlsServerConfig(
                select_certificate=select_certificate,
                alpn_protocols=("h3", "h3-29"),
                cipher_suites=suites,
                groups=(GROUP_X25519, GROUP_SIM),
                transport_params=TransportParameters(
                    initial_max_data=1_048_576,
                    initial_max_stream_data_bidi_local=262_144,
                    initial_max_stream_data_bidi_remote=262_144,
                    initial_max_stream_data_uni=262_144,
                    initial_max_streams_bidi=16,
                ),
                echo_sni=profile.echo_sni_quic,
                ticket_key=_TICKET_KEY if case in ("resumption", "zerortt") else None,
                max_early_data=65536 if case == "zerortt" else 0,
            ),
            advertised_versions=versions,
            respond_to_forced_negotiation=profile.respond_to_forced_negotiation,
            respond_without_padding=profile.respond_without_padding,
            alert_reason_text=profile.alert_reason,
            app_handler=app_handler,
            stateless_retry=(case == "retry"),
        )

    def _client_config(self, flavour: ClientFlavour, case: str) -> QuicClientConfig:
        suites = flavour.cipher_suites
        if case == "chacha20":
            suites = (SUITE_CHACHA20_POLY1305_SHA256,)
        versions: Sequence[int] = (QUIC_V1,)
        if case == "versionnegotiation":
            versions = (label_to_version("draft-32"), QUIC_V1)
        streams = {}
        if case == "http3":
            streams = {
                0: h3.encode_head_request("interop.example"),
                2: h3.encode_control_stream(),
            }
        return QuicClientConfig(
            versions=versions,
            tls=TlsClientConfig(
                server_name="interop.example",
                alpn=("h3", "h3-29"),
                cipher_suites=suites,
                groups=flavour.groups,
                trusted_roots=(self._ca.root,),
            ),
            application_streams=streams,
            timeout=3.0,
            collect_session_ticket=(case == "handshake-with-ticket"),
        )

    def _check(self, case: str, result) -> bool:
        if case == "transferparams":
            return (
                result.transport_params is not None
                and result.transport_params.initial_max_data == 1_048_576
            )
        if case == "http3":
            data = result.streams.get(0)
            if not data:
                return False
            try:
                return h3.decode_response(data).status == 200
            except h3.H3Error:
                return False
        if case == "versionnegotiation":
            return result.version == QUIC_V1 and result.version_negotiation_seen
        if case == "chacha20":
            return result.tls.cipher_suite == "TLS_CHACHA20_POLY1305_SHA256"
        return True  # handshake / retry: reaching here means success

    def run(
        self,
        clients: Sequence[ClientFlavour] = CLIENT_FLAVOURS,
        servers: Sequence[str] = _SERVER_PROFILES,
        cases: Sequence[str] = TEST_CASES,
    ) -> InteropResult:
        result = InteropResult()
        client_address = IPv4Address.parse("198.51.100.77")
        for server_name in servers:
            profile = PROFILES[server_name]
            for case in cases:
                network = Network()
                server_address = IPv4Address.parse("192.0.2.77")
                network.bind_udp(
                    server_address,
                    443,
                    QuicServerEndpoint(
                        self._server_behaviour(profile, case),
                        seed=("interop", server_name, case),
                    ),
                )
                for flavour in clients:
                    try:
                        if case in ("resumption", "zerortt"):
                            passed = self._run_two_connection_case(
                                network, client_address, server_address, flavour, case, server_name
                            )
                        else:
                            connection = QuicClientConnection(
                                network,
                                client_address,
                                server_address,
                                443,
                                self._client_config(flavour, case),
                                DeterministicRandom(
                                    ("interop", flavour.name, server_name, case)
                                ),
                            )
                            passed = self._check(case, connection.connect())
                    except (HandshakeTimeout, VersionMismatchError, QuicError):
                        passed = False
                    result.outcomes[(flavour.name, server_name, case)] = passed
        return result

    def _run_two_connection_case(
        self, network, client_address, server_address, flavour, case, server_name
    ) -> bool:
        """Resumption / 0-RTT: a warm-up connection supplies the ticket."""
        warmup = QuicClientConnection(
            network,
            client_address,
            server_address,
            443,
            self._client_config(flavour, "handshake-with-ticket"),
            DeterministicRandom(("interop-warm", flavour.name, server_name, case)),
        )
        ticket = warmup.connect().session_ticket
        if ticket is None:
            return False
        config = self._client_config(flavour, case)
        config.tls.session_ticket = ticket
        if case == "zerortt":
            config.tls.offer_early_data = True
            config.use_early_data = True
            config.application_streams = {0: h3.encode_head_request("interop.example")}
        second = QuicClientConnection(
            network,
            client_address,
            server_address,
            443,
            config,
            DeterministicRandom(("interop-resume", flavour.name, server_name, case)),
        )
        outcome = second.connect()
        if case == "resumption":
            return outcome.tls.resumed
        return outcome.tls.resumed and outcome.early_data_accepted and bool(outcome.streams)
