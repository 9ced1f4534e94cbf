"""TLS 1.3 handshake engine: client and server sessions.

The engine operates on framed handshake messages and is transport
agnostic: the QUIC connection machinery feeds it CRYPTO-frame data and
pulls key material for packet protection; the TCP record layer
(:mod:`repro.tls.record`) wraps the same messages in records.

Mirroring the paper's methodology (§5.1), the scanners send the same
Client Hello over QUIC and over TCP: cipher suites in identical order,
the X25519 key-share, optional SNI and ALPN — QUIC merely adds the
``quic_transport_parameters`` extension.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache, wraps
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.rand import DeterministicRandom
from repro.crypto.rsa import RsaPrivateKey, SignatureError
from repro.crypto.x25519 import X25519_BASEPOINT, x25519, x25519_base
from repro.quic.transport_params import TransportParameters
from repro.tls.alerts import AlertDescription, AlertError
from repro.tls.certificates import Certificate, verify_chain
from repro.tls.ciphersuites import (
    ALL_SUITES,
    CipherSuite,
    SUITE_AES_128_GCM_SHA256,
    suite_by_id,
)
from repro.tls.extensions import (
    ExtensionType,
    GROUP_SECP256R1,
    GROUP_SIM,
    GROUP_X25519,
    TLS13,
    decode_alpn,
    decode_key_share,
    decode_psk_client,
    decode_sni,
    encode_alpn,
    encode_key_share,
    encode_psk_client,
    encode_psk_modes,
    encode_psk_server,
    encode_sni,
    encode_supported_groups,
    encode_supported_versions,
    psk_binders_serialized_length,
)
from repro.tls.tickets import (
    SessionTicket,
    decode_new_session_ticket,
    encode_new_session_ticket,
    open_ticket,
    seal_ticket,
)
from repro.tls.keyschedule import KeySchedule, TrafficSecrets
from repro.tls.messages import (
    CertificateMessage,
    CertificateVerify,
    ClientHello,
    EncryptedExtensions,
    Finished,
    HandshakeType,
    MessageDecodeError,
    ServerHello,
    iter_messages,
)

__all__ = [
    "TlsClientConfig",
    "TlsServerConfig",
    "TlsClientSession",
    "TlsServerSession",
    "NegotiatedSession",
    "ServerFlight",
    "GROUP_NAMES",
    "generate_key_shares",
    "scanner_tls_kwargs",
]

GROUP_NAMES = {
    GROUP_X25519: "x25519",
    GROUP_SECP256R1: "secp256r1(sim)",
    GROUP_SIM: "sim-dh",
}


def _decode_error_alerts(process):
    """A peer's malformed message or extension is a ``decode_error``
    alert (RFC 8446 §6.2), so it closes the handshake like any alert."""

    @wraps(process)
    def guarded(self, framed: bytes):
        try:
            return process(self, framed)
        except MessageDecodeError as exc:
            raise AlertError(AlertDescription.DECODE_ERROR, str(exc)) from exc

    return guarded


def _group_shared_secret(
    group: int, own_private: bytes, own_public: bytes, peer_public: bytes, is_client: bool
) -> bytes:
    if group == GROUP_X25519:
        # RFC 8446 section 7.4.2: a share of the wrong length is malformed,
        # and an all-zero result means the peer sent a low-order point.
        if len(peer_public) != 32:
            raise AlertError(AlertDescription.ILLEGAL_PARAMETER, "bad X25519 share length")
        shared = x25519(own_private, peer_public)
        if not any(shared):
            raise AlertError(AlertDescription.ILLEGAL_PARAMETER, "low-order X25519 share")
        return shared
    # Simulated non-X25519 group: both sides hash the two public values
    # in client/server order.  Not secure — models the handful of
    # deployments choosing other curves (paper §5.1, 206 targets).
    client_pub, server_pub = (own_public, peer_public) if is_client else (peer_public, own_public)
    return hashlib.sha256(b"sim-ecdh" + client_pub + server_pub).digest()


# SignatureScheme for CertificateVerify under the simulated suite: a
# hash binding of (certificate public key, signed content), checkable
# from the public key alone.  Not a real signature — the same explicit
# trade as the sim AEAD and sim-ecdh group above, and only negotiated
# between our own endpoints (TLS_SIM_SHA256).  Real RSA PKCS#1 v1.5
# still runs under TLS_AES_128_GCM_SHA256 and for every certificate
# chain signature.
_SIG_SCHEME_SIM = 0xFF01


# One entry per certificate key a world serves: 38 in a week.
@lru_cache(maxsize=64)
def _pubkey_bytes(n: int, e: int) -> bytes:
    return n.to_bytes((n.bit_length() + 7) // 8, "big") + e.to_bytes(4, "big")


def _sim_certificate_signature(public_key, content: bytes) -> bytes:
    return hashlib.sha256(
        b"sim-cv" + _pubkey_bytes(public_key.n, public_key.e) + content
    ).digest()


def generate_key_shares(
    groups: Sequence[int], rng: DeterministicRandom, once: bool = False
) -> Tuple[Tuple[int, bytes, bytes], ...]:
    """(group, private, public) key shares for the offered groups.

    ``once`` marks a scanner's shares, made once per stage: one ladder
    is cheaper than building the ~1 MB table of ``x25519_base``'s comb.
    A client without static shares makes a key per connection, which
    repays the table: ``repro interop`` makes 396 and runs 15 % faster
    on the comb than on the ladder.
    """
    shares = []
    for group in groups:
        private = rng.token(32)
        if group == GROUP_X25519:
            if once:
                public = x25519(private, X25519_BASEPOINT)
            else:
                public = x25519_base(private)
        else:
            public = hashlib.sha256(b"sim-pub" + private).digest() + private[:1]
        shares.append((group, private, public))
    return tuple(shares)


def scanner_tls_kwargs(
    cipher_suites: Sequence[CipherSuite], groups: Sequence[int], rng: DeterministicRandom
) -> Dict[str, object]:
    """The ``TlsClientConfig`` fields one scanner repeats on every connection.

    Empty ``cipher_suites`` / ``groups`` keep the config defaults.  The
    key shares are derived here, once, from the scanner's labelled
    child generator — its per-target streams are unaffected, so shard
    workers and serial runs derive the same shares.
    """
    kwargs: Dict[str, object] = {}
    if cipher_suites:
        kwargs["cipher_suites"] = tuple(cipher_suites)
    if groups:
        kwargs["groups"] = tuple(groups)
    kwargs["static_key_shares"] = generate_key_shares(
        kwargs.get("groups", TlsClientConfig.groups), rng, once=True
    )
    return kwargs


@dataclass
class NegotiatedSession:
    """Everything a scanner records about a completed TLS handshake."""

    tls_version: str = "TLS1.3"
    cipher_suite: str = ""
    key_exchange_group: str = ""
    alpn: Optional[str] = None
    server_certificates: List[Certificate] = field(default_factory=list)
    server_extensions: List[str] = field(default_factory=list)
    sni_echoed: bool = False
    peer_transport_params: Optional[TransportParameters] = None
    certificate_errors: List[str] = field(default_factory=list)
    resumed: bool = False  # PSK handshake (no certificate flight)
    early_data_accepted: bool = False
    session_ticket: Optional[SessionTicket] = None  # issued by the server

    @property
    def certificate_fingerprint(self) -> Optional[str]:
        if not self.server_certificates:
            return None
        return self.server_certificates[0].fingerprint()


@dataclass
class TlsClientConfig:
    server_name: Optional[str] = None
    alpn: Sequence[str] = ()
    cipher_suites: Sequence[CipherSuite] = (SUITE_AES_128_GCM_SHA256,)
    groups: Sequence[int] = (GROUP_X25519,)
    transport_params: Optional[TransportParameters] = None  # set => QUIC mode
    trusted_roots: Sequence[Certificate] = ()
    validation_week: Optional[int] = None
    # Resumption (RFC 8446 §4.2.11): present this ticket as a PSK.
    session_ticket: Optional[SessionTicket] = None
    offer_early_data: bool = False
    # Batched-scan accelerator: (group, private, public) key shares
    # generated once per scanner (QScanner and Goscanner both, via
    # scanner_tls_kwargs) instead of per connection — the
    # ephemeral-key reuse real scanners apply at campaign rates.  The
    # handshake secrets still differ per connection (fresh randoms and
    # server shares enter the transcript and key schedule).
    static_key_shares: Optional[Tuple[Tuple[int, bytes, bytes], ...]] = None


@dataclass
class TlsServerConfig:
    """Server-side TLS behaviour, including the paper's CDN quirks."""

    # (sni) -> (chain, key); raising AlertError models SNI-required
    # deployments answering alert 0x28.  ``None`` serves the session's
    # own certificate (one config shared by servers that differ in it).
    select_certificate: Callable[
        [Optional[str]], Optional[Tuple[List[Certificate], RsaPrivateKey]]
    ] = None  # type: ignore[assignment]
    alpn_protocols: Sequence[str] = ()
    cipher_suites: Sequence[CipherSuite] = (SUITE_AES_128_GCM_SHA256,)
    groups: Sequence[int] = (GROUP_X25519,)
    preferred_group: int = GROUP_X25519
    transport_params: Optional[TransportParameters] = None
    echo_sni: bool = True  # RFC 6066 ack when SNI used for selection
    require_alpn: bool = False
    no_sni_drops_alpn: bool = False  # error vhost negotiates no ALPN
    # Resumption: setting a ticket key enables PSK handshakes and
    # NewSessionTicket issuance; max_early_data > 0 accepts 0-RTT.
    ticket_key: Optional[bytes] = None
    max_early_data: int = 0


class _SessionBase:
    def __init__(self, rng: DeterministicRandom):
        self._rng = rng
        self.schedule: Optional[KeySchedule] = None
        self.suite: Optional[CipherSuite] = None
        self.handshake_secrets: Optional[TrafficSecrets] = None
        self.application_secrets: Optional[TrafficSecrets] = None
        self.result = NegotiatedSession()


class TlsClientSession(_SessionBase):
    """Client side of a TLS 1.3 handshake."""

    def __init__(self, config: TlsClientConfig, rng: Optional[DeterministicRandom] = None):
        super().__init__(rng or DeterministicRandom("tls-client"))
        self.config = config
        self._private_keys: Dict[int, bytes] = {}
        self._public_keys: Dict[int, bytes] = {}
        self._client_hello_bytes: Optional[bytes] = None
        self._server_finished_seen = False
        self.handshake_complete = False
        self._psk_accepted = False
        # client_early_traffic_secret, available right after the CH
        # when a ticket permitting early data was offered (0-RTT).
        self.early_traffic_secret: Optional[bytes] = None

    # -- flight 1 -------------------------------------------------------------
    def client_hello(self) -> bytes:
        config = self.config
        shares: List[Tuple[int, bytes]] = []
        key_shares = config.static_key_shares
        if key_shares is None:
            key_shares = generate_key_shares(config.groups, self._rng)
        for group, private, public in key_shares:
            self._private_keys[group] = private
            self._public_keys[group] = public
            shares.append((group, public))
        extensions: List[Tuple[int, bytes]] = []
        if config.server_name:
            extensions.append((ExtensionType.SERVER_NAME, encode_sni(config.server_name)))
        extensions.append(
            (ExtensionType.SUPPORTED_GROUPS, encode_supported_groups(list(config.groups)))
        )
        extensions.append((ExtensionType.SIGNATURE_ALGORITHMS, b"\x00\x02\x04\x01"))
        if config.alpn:
            extensions.append((ExtensionType.ALPN, encode_alpn(list(config.alpn))))
        extensions.append(
            (ExtensionType.SUPPORTED_VERSIONS, encode_supported_versions([TLS13], True))
        )
        extensions.append((ExtensionType.KEY_SHARE, encode_key_share(shares, True)))
        if config.transport_params is not None:
            extensions.append(
                (
                    ExtensionType.QUIC_TRANSPORT_PARAMETERS,
                    config.transport_params.encode(),
                )
            )
        ticket = config.session_ticket
        offering_early = bool(
            ticket and config.offer_early_data and ticket.allows_early_data
        )
        if ticket is not None:
            extensions.append(
                (ExtensionType.PSK_KEY_EXCHANGE_MODES, encode_psk_modes())
            )
            if offering_early:
                extensions.append((ExtensionType.EARLY_DATA, b""))
            # pre_shared_key MUST be the last extension; build the hello
            # with a zero binder first, then fill in the real binder
            # over the truncated ClientHello (RFC 8446 §4.2.11.2).
            import hashlib as _hashlib

            hash_len = _hashlib.new(ticket.hash_name).digest_size
            extensions.append(
                (
                    ExtensionType.PRE_SHARED_KEY,
                    encode_psk_client(ticket.identity, bytes(hash_len)),
                )
            )
        hello = ClientHello(
            random=self._rng.token(32),
            cipher_suites=[suite.id for suite in config.cipher_suites],
            extensions=extensions,
            legacy_session_id=self._rng.token(32),
        )
        framed = hello.encode()
        if ticket is not None:
            import hashlib as _hashlib

            hash_len = _hashlib.new(ticket.hash_name).digest_size
            truncated = framed[: -psk_binders_serialized_length(bytes(hash_len))]
            binder_schedule = KeySchedule(ticket.hash_name, psk=ticket.psk)
            binder = binder_schedule.psk_binder(truncated)
            framed = framed[: -hash_len] + binder
            if offering_early:
                early_schedule = KeySchedule(ticket.hash_name, psk=ticket.psk)
                early_schedule.update_transcript(framed)
                self.early_traffic_secret = early_schedule.early_traffic_secret()
        self._client_hello_bytes = framed
        return framed

    # -- flight 2 ---------------------------------------------------------------
    def process_server_hello(self, framed: bytes) -> None:
        """Process the ServerHello; handshake secrets become available."""
        messages = list(iter_messages(framed))
        if len(messages) != 1 or messages[0][0] != HandshakeType.SERVER_HELLO:
            raise AlertError(AlertDescription.UNEXPECTED_MESSAGE, "expected ServerHello")
        _, body, raw = messages[0]
        hello = ServerHello.decode(body)
        suite = suite_by_id(hello.cipher_suite)
        if suite is None or suite.id not in [s.id for s in self.config.cipher_suites]:
            raise AlertError(AlertDescription.ILLEGAL_PARAMETER, "suite not offered")
        self.suite = suite
        self.result.cipher_suite = suite.name
        self.result.server_extensions += ExtensionType.names(hello.extensions)
        key_share_data = hello.extension(ExtensionType.KEY_SHARE)
        if key_share_data is None:
            raise AlertError(AlertDescription.MISSING_EXTENSION, "no key_share")
        [(group, server_public)] = decode_key_share(key_share_data, False)
        if group not in self._private_keys:
            raise AlertError(AlertDescription.ILLEGAL_PARAMETER, "group not offered")
        self.result.key_exchange_group = GROUP_NAMES.get(group, f"group_{group}")
        shared = _group_shared_secret(
            group,
            self._private_keys[group],
            self._public_keys[group],
            server_public,
            is_client=True,
        )
        # Did the server accept our PSK offer?
        ticket = self.config.session_ticket
        self._psk_accepted = (
            ticket is not None and hello.extension(ExtensionType.PRE_SHARED_KEY) is not None
        )
        self.result.resumed = self._psk_accepted
        schedule = KeySchedule(
            suite.hash_name, psk=ticket.psk if self._psk_accepted and ticket else None
        )
        assert self._client_hello_bytes is not None
        schedule.update_transcript(self._client_hello_bytes)
        schedule.update_transcript(raw)
        schedule.set_shared_secret(shared)
        self.schedule = schedule
        self.handshake_secrets = schedule.handshake_traffic_secrets()

    @_decode_error_alerts
    def process_server_flight(self, framed: bytes) -> bytes:
        """Process EE..Finished; returns the framed client Finished.

        Application secrets become available afterwards; the negotiated
        session summary is in :attr:`result`.
        """
        if self.schedule is None or self.suite is None:
            raise AlertError(AlertDescription.UNEXPECTED_MESSAGE, "ServerHello not processed")
        schedule = self.schedule
        server_cert: Optional[CertificateMessage] = None
        for msg_type, body, raw in iter_messages(framed):
            if msg_type == HandshakeType.ENCRYPTED_EXTENSIONS:
                ee = EncryptedExtensions.decode(body)
                self.result.server_extensions += ExtensionType.names(ee.extensions)
                alpn_data = ee.extension(ExtensionType.ALPN)
                if alpn_data is not None:
                    protocols = decode_alpn(alpn_data)
                    self.result.alpn = protocols[0] if protocols else None
                sni_data = ee.extension(ExtensionType.SERVER_NAME)
                self.result.sni_echoed = sni_data is not None
                self.result.early_data_accepted = (
                    ee.extension(ExtensionType.EARLY_DATA) is not None
                )
                tp_data = ee.extension(
                    ExtensionType.QUIC_TRANSPORT_PARAMETERS
                ) or ee.extension(ExtensionType.QUIC_TRANSPORT_PARAMETERS_DRAFT)
                if tp_data is not None:
                    self.result.peer_transport_params = TransportParameters.decode(tp_data)
                schedule.update_transcript(raw)
            elif msg_type == HandshakeType.CERTIFICATE:
                server_cert = CertificateMessage.decode(body)
                self.result.server_certificates = list(server_cert.chain)
                schedule.update_transcript(raw)
            elif msg_type == HandshakeType.CERTIFICATE_VERIFY:
                verify = CertificateVerify.decode(body)
                if server_cert is None or not server_cert.chain:
                    raise AlertError(AlertDescription.UNEXPECTED_MESSAGE, "CV before Certificate")
                content = CertificateVerify.signed_content(
                    schedule.transcript_hash(), server=True
                )
                leaf_key = server_cert.chain[0].public_key
                if (
                    verify.algorithm == _SIG_SCHEME_SIM
                    and self.suite is not None
                    and self.suite.name == "TLS_SIM_SHA256"
                ):
                    if verify.signature != _sim_certificate_signature(leaf_key, content):
                        raise AlertError(
                            AlertDescription.DECRYPT_ERROR,
                            "CertificateVerify: sim signature mismatch",
                        )
                else:
                    try:
                        leaf_key.verify(content, verify.signature)
                    except SignatureError as exc:
                        raise AlertError(
                            AlertDescription.DECRYPT_ERROR, f"CertificateVerify: {exc}"
                        ) from exc
                schedule.update_transcript(raw)
            elif msg_type == HandshakeType.FINISHED:
                finished = Finished.decode(body)
                assert self.handshake_secrets is not None
                expected = schedule.finished_verify_data(self.handshake_secrets.server)
                if finished.verify_data != expected:
                    raise AlertError(AlertDescription.DECRYPT_ERROR, "bad server Finished")
                schedule.update_transcript(raw)
                self._server_finished_seen = True
            else:
                raise AlertError(
                    AlertDescription.UNEXPECTED_MESSAGE, f"unexpected message {msg_type}"
                )
        if not self._server_finished_seen:
            raise AlertError(AlertDescription.UNEXPECTED_MESSAGE, "server Finished missing")
        # Application secrets are derived over the transcript through
        # the server Finished (RFC 8446 §7.1).
        self.application_secrets = schedule.application_traffic_secrets()
        if self.config.trusted_roots and not self._psk_accepted:
            self.result.certificate_errors = verify_chain(
                self.result.server_certificates,
                self.config.trusted_roots,
                server_name=self.config.server_name,
                week=self.config.validation_week,
            )
        assert self.handshake_secrets is not None
        verify_data = schedule.finished_verify_data(self.handshake_secrets.client)
        client_finished = Finished(verify_data).encode()
        schedule.update_transcript(client_finished)
        self.handshake_complete = True
        return client_finished

    def process_post_handshake(self, data: bytes) -> Optional[SessionTicket]:
        """Process post-handshake messages (NewSessionTicket).

        Returns the first usable :class:`SessionTicket`, also stored on
        :attr:`result`.
        """
        if not self.handshake_complete or self.schedule is None or self.suite is None:
            return None
        for msg_type, body, _raw in iter_messages(data):
            if msg_type != 4:  # NewSessionTicket
                continue
            ticket_blob, nonce, max_early_data = decode_new_session_ticket(body)
            psk = KeySchedule.psk_from_resumption(
                self.schedule.resumption_master_secret(), nonce, self.suite.hash_name
            )
            ticket = SessionTicket(
                identity=ticket_blob,
                psk=psk,
                cipher_suite_id=self.suite.id,
                hash_name=self.suite.hash_name,
                server_name=self.config.server_name,
                alpn=self.result.alpn,
                max_early_data=max_early_data,
                ticket_nonce=nonce,
            )
            self.result.session_ticket = ticket
            return ticket
        return None


@dataclass
class ServerFlight:
    """The server's first flight, split by encryption level for QUIC."""

    server_hello: bytes
    encrypted_flight: bytes  # EE + Certificate + CertificateVerify + Finished


class TlsServerSession(_SessionBase):
    """Server side of a TLS 1.3 handshake."""

    def __init__(
        self,
        config: TlsServerConfig,
        rng: Optional[DeterministicRandom] = None,
        certificate: Optional[Tuple[Sequence[Certificate], RsaPrivateKey]] = None,
    ):
        super().__init__(rng or DeterministicRandom("tls-server"))
        self.config = config
        self.certificate = certificate
        self.client_hello: Optional[ClientHello] = None
        self.client_sni: Optional[str] = None
        self.client_alpn: List[str] = []
        self.client_transport_params: Optional[TransportParameters] = None
        self.handshake_complete = False
        self._resumed = False
        # client_early_traffic_secret when 0-RTT was accepted.
        self.early_traffic_secret: Optional[bytes] = None
        self.early_data_accepted = False

    def select_certificate(self, sni: Optional[str]):
        """The ``(chain, key)`` to serve ``sni``; may raise AlertError."""
        select = self.config.select_certificate
        selected = select(sni) if select is not None else None
        if selected is None:
            selected = self.certificate
        if selected is None:
            raise AlertError(AlertDescription.INTERNAL_ERROR, "no certificate configured")
        return selected

    @_decode_error_alerts
    def process_client_hello(self, framed: bytes) -> ServerFlight:
        """Build the full server flight; raises AlertError on policy
        failures (e.g. SNI-required deployments)."""
        messages = list(iter_messages(framed))
        if len(messages) != 1 or messages[0][0] != HandshakeType.CLIENT_HELLO:
            raise AlertError(AlertDescription.UNEXPECTED_MESSAGE, "expected ClientHello")
        _, body, raw_ch = messages[0]
        hello = ClientHello.decode(body)
        self.client_hello = hello

        sni_data = hello.extension(ExtensionType.SERVER_NAME)
        self.client_sni = decode_sni(sni_data) if sni_data else None
        alpn_data = hello.extension(ExtensionType.ALPN)
        self.client_alpn = decode_alpn(alpn_data) if alpn_data else []
        tp_data = hello.extension(ExtensionType.QUIC_TRANSPORT_PARAMETERS)
        if tp_data is None:
            tp_data = hello.extension(ExtensionType.QUIC_TRANSPORT_PARAMETERS_DRAFT)
        if tp_data is not None:
            self.client_transport_params = TransportParameters.decode(tp_data)

        # PSK resumption offer (RFC 8446 §4.2.11): must be checked before
        # suite selection, since the PSK pins the hash algorithm.
        psk: Optional[bytes] = None
        psk_suite_id: Optional[int] = None
        psk_data = hello.extension(ExtensionType.PRE_SHARED_KEY)
        if psk_data is not None and self.config.ticket_key is not None:
            identity, _age, binder = decode_psk_client(psk_data)
            opened = open_ticket(self.config.ticket_key, identity)
            if opened is not None:
                candidate_psk, candidate_suite, _t_alpn, ticket_med = opened
                candidate = suite_by_id(candidate_suite)
                if candidate is not None and candidate.id in set(hello.cipher_suites):
                    truncated = raw_ch[: -psk_binders_serialized_length(binder)]
                    expected = KeySchedule(
                        candidate.hash_name, psk=candidate_psk
                    ).psk_binder(truncated)
                    if expected != binder:
                        raise AlertError(
                            AlertDescription.DECRYPT_ERROR, "PSK binder mismatch"
                        )
                    psk = candidate_psk
                    psk_suite_id = candidate.id
                    self._resumed = True
                    self.result.resumed = True
                    if (
                        hello.extension(ExtensionType.EARLY_DATA) is not None
                        and self.config.max_early_data > 0
                        and ticket_med > 0
                    ):
                        self.early_data_accepted = True

        # Suite selection: server preference order (pinned by the PSK).
        offered = set(hello.cipher_suites)
        if psk_suite_id is not None:
            suite = suite_by_id(psk_suite_id)
        else:
            suite = next((s for s in self.config.cipher_suites if s.id in offered), None)
        if suite is None:
            raise AlertError(AlertDescription.HANDSHAKE_FAILURE, "no common cipher suite")
        self.suite = suite
        self.result.cipher_suite = suite.name

        # Group / key share selection.
        key_share_data = hello.extension(ExtensionType.KEY_SHARE)
        if key_share_data is None:
            raise AlertError(AlertDescription.MISSING_EXTENSION, "no key_share")
        client_shares = dict(decode_key_share(key_share_data, True))
        group = None
        if self.config.preferred_group in client_shares and self.config.preferred_group in self.config.groups:
            group = self.config.preferred_group
        else:
            group = next((g for g in self.config.groups if g in client_shares), None)
        if group is None:
            raise AlertError(AlertDescription.HANDSHAKE_FAILURE, "no common group")
        self.result.key_exchange_group = GROUP_NAMES.get(group, f"group_{group}")
        client_public = client_shares[group]
        private = self._rng.token(32)
        if group == GROUP_X25519:
            public = x25519_base(private)
        else:
            public = hashlib.sha256(b"sim-pub" + private).digest() + private[:1]
        shared = _group_shared_secret(group, private, public, client_public, is_client=False)

        # ALPN selection.
        chosen_alpn: Optional[str] = None
        if self.config.no_sni_drops_alpn and self.client_sni is None:
            pass  # error vhost: no application protocol negotiated
        elif self.config.alpn_protocols:
            chosen_alpn = next(
                (p for p in self.config.alpn_protocols if p in self.client_alpn), None
            )
            if chosen_alpn is None and self.config.require_alpn:
                raise AlertError(
                    AlertDescription.NO_APPLICATION_PROTOCOL, "no common ALPN"
                )
        self.result.alpn = chosen_alpn

        # Certificate selection — may raise AlertError per server policy.
        # Resumed handshakes send no certificate flight (RFC 8446 §2.2).
        chain: List[Certificate] = []
        key = None
        if not self._resumed:
            chain, key = self.select_certificate(self.client_sni)
            self.result.server_certificates = list(chain)

        # ServerHello.
        sh_extensions: List[Tuple[int, bytes]] = [
            (ExtensionType.SUPPORTED_VERSIONS, encode_supported_versions([TLS13], False)),
            (ExtensionType.KEY_SHARE, encode_key_share([(group, public)], False)),
        ]
        if self._resumed:
            sh_extensions.append((ExtensionType.PRE_SHARED_KEY, encode_psk_server(0)))
        server_hello = ServerHello(
            random=self._rng.token(32),
            cipher_suite=suite.id,
            extensions=sh_extensions,
            legacy_session_id=hello.legacy_session_id,
        ).encode()

        schedule = KeySchedule(suite.hash_name, psk=psk)
        schedule.update_transcript(raw_ch)
        if self.early_data_accepted:
            # 0-RTT keys are bound to the transcript through the CH only.
            self.early_traffic_secret = schedule.early_traffic_secret()
        schedule.update_transcript(server_hello)
        schedule.set_shared_secret(shared)
        self.schedule = schedule
        self.handshake_secrets = schedule.handshake_traffic_secrets()

        # EncryptedExtensions.
        ee_extensions: List[Tuple[int, bytes]] = []
        if chosen_alpn is not None:
            ee_extensions.append((ExtensionType.ALPN, encode_alpn([chosen_alpn])))
        if self.client_sni and self.config.echo_sni:
            ee_extensions.append((ExtensionType.SERVER_NAME, b""))
        if self.early_data_accepted:
            ee_extensions.append((ExtensionType.EARLY_DATA, b""))
        if self.config.transport_params is not None:
            ee_extensions.append(
                (
                    ExtensionType.QUIC_TRANSPORT_PARAMETERS,
                    self.config.transport_params.encode(),
                )
            )
        ee = EncryptedExtensions(extensions=ee_extensions).encode()
        schedule.update_transcript(ee)

        if self._resumed:
            cert_msg = b""
            cert_verify = b""
        else:
            assert key is not None
            cert_msg = CertificateMessage(chain=list(chain)).encode()
            schedule.update_transcript(cert_msg)
            content = CertificateVerify.signed_content(
                schedule.transcript_hash(), server=True
            )
            if suite.name == "TLS_SIM_SHA256":
                cert_verify = CertificateVerify(
                    signature=_sim_certificate_signature(key.public_key, content),
                    algorithm=_SIG_SCHEME_SIM,
                ).encode()
            else:
                cert_verify = CertificateVerify(signature=key.sign(content)).encode()
            schedule.update_transcript(cert_verify)

        verify_data = schedule.finished_verify_data(self.handshake_secrets.server)
        finished = Finished(verify_data).encode()
        schedule.update_transcript(finished)

        self.application_secrets = schedule.application_traffic_secrets()
        self.result.server_extensions = ExtensionType.names(sh_extensions + ee_extensions)
        self.result.sni_echoed = any(
            etype == ExtensionType.SERVER_NAME for etype, _ in ee_extensions
        )
        return ServerFlight(server_hello=server_hello, encrypted_flight=ee + cert_msg + cert_verify + finished)

    def issue_ticket(
        self,
        lifetime: int = 86_400,
        ticket_nonce: bytes = b"\x00",
    ) -> Optional[bytes]:
        """A framed NewSessionTicket, or None when resumption is off."""
        if (
            self.config.ticket_key is None
            or not self.handshake_complete
            or self.schedule is None
            or self.suite is None
        ):
            return None
        psk = KeySchedule.psk_from_resumption(
            self.schedule.resumption_master_secret(), ticket_nonce, self.suite.hash_name
        )
        identity = seal_ticket(
            self.config.ticket_key,
            psk,
            self.suite.id,
            self.result.alpn,
            self.config.max_early_data,
            self._rng.child("ticket"),
        )
        return encode_new_session_ticket(
            identity,
            ticket_nonce=ticket_nonce,
            lifetime=lifetime,
            max_early_data=self.config.max_early_data,
        )

    def process_client_finished(self, framed: bytes) -> None:
        if self.schedule is None or self.handshake_secrets is None:
            raise AlertError(AlertDescription.UNEXPECTED_MESSAGE, "handshake not started")
        messages = list(iter_messages(framed))
        if len(messages) != 1 or messages[0][0] != HandshakeType.FINISHED:
            raise AlertError(AlertDescription.UNEXPECTED_MESSAGE, "expected Finished")
        finished = Finished.decode(messages[0][1])
        expected = self.schedule.finished_verify_data(self.handshake_secrets.client)
        if finished.verify_data != expected:
            raise AlertError(AlertDescription.DECRYPT_ERROR, "bad client Finished")
        self.schedule.update_transcript(messages[0][2])
        self.handshake_complete = True
