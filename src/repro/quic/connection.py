"""QUIC connection machinery: client and server handshake drivers.

The client side is what the QScanner drives: it performs a complete
RFC 9000/9001 handshake — Initial packets protected with real
AES-128-GCM keys derived from the Destination Connection ID, version
negotiation handling, CRYPTO-stream reassembly, the TLS 1.3 exchange,
Handshake and 1-RTT packet protection — followed by an application
data exchange (HTTP/3) on stream 0.

The server side (:class:`QuicServerEndpoint`) is the per-deployment
engine the simulated Internet installs on UDP :443.  Implementation
quirks the paper observes (SNI-required alerts, version-negotiation
inconsistencies, middleboxes that answer VN but cannot complete
handshakes) are expressed through its configuration hooks; see
:mod:`repro.server.profiles`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.crypto.aead import AeadError
from repro.crypto.hkdf import hkdf_expand_label
from repro.crypto.rand import DeterministicRandom, derive_seed, seed_value
from repro.netsim.addresses import Address
from repro.netsim.topology import ClientUdpSocket, Network, UdpEndpoint
from repro.quic import frames as fr
from repro.quic.errors import (
    CRYPTO_ERROR_HANDSHAKE_FAILURE,
    QuicError,
    TransportErrorCode,
    crypto_error,
)
from repro.quic.initial_aead import derive_initial_keys
from repro.quic.packet import (
    PacketDecodeError,
    PacketType,
    decode_version_negotiation,
    encode_version_negotiation,
    is_long_header,
)
from repro.quic.protection import ProtectionKeys, protect_long, protect_short, unprotect
from repro.quic.transport_params import TransportParameters
from repro.quic.varint import varint_length
from repro.quic.versions import QUIC_V1, is_forcing_negotiation
from repro.tls.alerts import AlertError
from repro.tls.ciphersuites import CipherSuite, suite_by_id
from repro.tls.engine import (
    TlsClientConfig,
    TlsClientSession,
    TlsServerConfig,
    TlsServerSession,
)

__all__ = [
    "QuicClientConfig",
    "QuicHandshakeResult",
    "QuicClientConnection",
    "QuicServerEndpoint",
    "QuicServerBehaviour",
    "VersionMismatchError",
    "HandshakeTimeout",
    "quic_protection_keys",
]

_MAX_DATAGRAM = 1452
_INITIAL_MIN_SIZE = 1200


def _initial_packet_length(
    payload_len: int, dcid: bytes, scid: bytes, token: bytes, pn_length: int = 4
) -> int:
    """Length of a protected Initial packet carrying ``payload_len``
    plaintext bytes — mirrors encode_long_header + AEAD expansion."""
    ciphertext_len = payload_len + 16
    return (
        7  # first byte + version + the two CID length bytes
        + len(dcid)
        + len(scid)
        + varint_length(len(token))
        + len(token)
        + varint_length(pn_length + ciphertext_len)
        + pn_length
        + ciphertext_len
    )


def quic_protection_keys(suite: CipherSuite, secret: bytes) -> ProtectionKeys:
    """Derive QUIC packet protection keys from a TLS traffic secret
    (RFC 9001 §5.1)."""
    key = hkdf_expand_label(secret, b"quic key", b"", suite.key_len, suite.hash_name)
    iv = hkdf_expand_label(secret, b"quic iv", b"", 12, suite.hash_name)
    hp = hkdf_expand_label(secret, b"quic hp", b"", suite.key_len, suite.hash_name)
    aead = suite.aead(key)
    mask_fn = suite.header_mask_fn()
    return ProtectionKeys(
        seal=aead.seal,
        open=aead.open,
        iv=iv,
        header_mask=lambda sample: mask_fn(hp, sample),
    )


def _initial_protection(direction_keys, fast: bool = False) -> ProtectionKeys:
    """Packet protection for the Initial level.

    With ``fast=True`` the RFC 9001 key material is derived exactly as
    normal but applied through the simulated AEAD instead of
    AES-128-GCM — an explicitly configured campaign-scale accelerator
    that must be enabled on both endpoints (see DESIGN.md §5).
    """
    if fast:
        from repro.crypto.aead import AeadSim, header_mask_sim

        aead = AeadSim(direction_keys.key)
        return ProtectionKeys(
            seal=aead.seal,
            open=aead.open,
            iv=direction_keys.iv,
            header_mask=lambda sample: header_mask_sim(direction_keys.hp, sample),
        )
    aead = direction_keys.aead()
    return ProtectionKeys(
        seal=aead.seal,
        open=aead.open,
        iv=direction_keys.iv,
        header_mask=direction_keys.header_mask,
    )


class VersionMismatchError(Exception):
    """Raised when the server supports none of our offered versions."""

    def __init__(self, server_versions: Sequence[int]):
        super().__init__(f"no compatible version, server offers {server_versions}")
        self.server_versions = list(server_versions)


class HandshakeTimeout(Exception):
    """The handshake did not complete within the idle timeout."""


class _CryptoStream:
    """Reassembles CRYPTO frames into an ordered byte stream."""

    def __init__(self):
        self._segments: Dict[int, bytes] = {}
        self._delivered = 0

    def receive(self, offset: int, data: bytes) -> bytes:
        if data:
            self._segments[offset] = data
        output = []
        while self._delivered in self._segments:
            segment = self._segments.pop(self._delivered)
            output.append(segment)
            self._delivered += len(segment)
        return b"".join(output)


@dataclass
class QuicClientConfig:
    versions: Sequence[int] = (QUIC_V1,)
    tls: TlsClientConfig = field(default_factory=TlsClientConfig)
    timeout: float = 3.0
    application_streams: Dict[int, bytes] = field(default_factory=dict)
    retry_on_version_negotiation: bool = True
    fast_initial_protection: bool = False
    # Batched-scan accelerator: reuse one (dcid, scid) pair across a
    # whole scan batch so the Initial key ladder is derived once, not
    # per connection.  Safe because the simulated fabric gives every
    # connection a unique ephemeral source port (servers key state by
    # (source, dcid)) and nothing recorded depends on CID values.
    initial_cids: Optional[Tuple[bytes, bytes]] = None
    # Send application_streams as 0-RTT early data when the configured
    # session ticket permits it (requires tls.session_ticket +
    # tls.offer_early_data).
    use_early_data: bool = False
    # Wait for a NewSessionTicket before finishing the connection.
    collect_session_ticket: bool = False


@dataclass
class QuicHandshakeResult:
    """Everything the QScanner records from one connection attempt."""

    version: int
    tls: "object"  # NegotiatedSession
    transport_params: Optional[TransportParameters]
    streams: Dict[int, bytes] = field(default_factory=dict)
    handshake_rtt: float = 0.0
    # Virtual time from the first flight to the first response byte —
    # the metric 0-RTT improves.
    time_to_first_byte: Optional[float] = None
    version_negotiation_seen: bool = False
    early_data_sent: bool = False
    # Observability: what the connection cost on the wire (counted
    # across every attempt, including VN/Retry restarts).
    retry_seen: bool = False
    datagrams_sent: int = 0
    datagrams_received: int = 0

    @property
    def early_data_accepted(self) -> bool:
        return bool(getattr(self.tls, "early_data_accepted", False))

    @property
    def session_ticket(self):
        return getattr(self.tls, "session_ticket", None)


class QuicClientConnection:
    """A synchronous QUIC client connection over the simulated network."""

    def __init__(
        self,
        network: Network,
        local_address: Address,
        remote_address: Address,
        remote_port: int,
        config: QuicClientConfig,
        rng: Optional[DeterministicRandom] = None,
    ):
        self._network = network
        self._socket: ClientUdpSocket = network.client_socket(local_address)
        self._remote = (remote_address, remote_port)
        self._config = config
        self._rng = rng or DeterministicRandom("quic-client")
        # Per-connection wire tallies, reset by connect(); surfaced on
        # QuicHandshakeResult for the QScanner's metrics.
        self._datagrams_sent = 0
        self._datagrams_received = 0

    @property
    def datagrams_sent(self) -> int:
        """Datagrams sent by the last connect() attempt (failed ones too)."""
        return self._datagrams_sent

    @property
    def datagrams_received(self) -> int:
        """Datagrams received by the last connect() attempt."""
        return self._datagrams_received

    # -- public API -----------------------------------------------------------
    def connect(self) -> QuicHandshakeResult:
        """Run the handshake + application exchange to completion.

        Raises :class:`VersionMismatchError`, :class:`HandshakeTimeout`
        or :class:`QuicError` (carrying e.g. the 0x128 crypto error).
        Returning or raising closes the socket, so the server forgets
        the connection; a second call raises :class:`ConnectionError`.
        """
        try:
            return self._connect()
        finally:
            self._socket.close(self._remote)

    def _connect(self) -> QuicHandshakeResult:
        versions = list(self._config.versions)
        version = versions[0]
        vn_seen = False
        last_vn: List[int] = []
        token = b""
        dcid_override: Optional[bytes] = None
        retry_seen = False
        self._datagrams_sent = 0
        self._datagrams_received = 0
        # The reported handshake RTT spans the whole connection attempt,
        # including any Version Negotiation or Retry round trips.
        start = self._network.now
        for attempt in range(3):
            try:
                return self._handshake(
                    version, vn_seen, token=token, dcid_override=dcid_override,
                    start=start, retry_seen=retry_seen,
                )
            except _VersionNegotiationReceived as vn:
                vn_seen = True
                last_vn = vn.versions
                if attempt >= 2 or not self._config.retry_on_version_negotiation:
                    raise VersionMismatchError(vn.versions) from None
                common = [v for v in versions if v in vn.versions and v != version]
                if not common:
                    raise VersionMismatchError(vn.versions) from None
                version = common[0]
            except _RetryReceived as retry:
                if retry_seen:
                    # A client MUST accept at most one Retry (RFC 9000 §17.2.5.2).
                    raise HandshakeTimeout() from None
                retry_seen = True
                token = retry.token
                dcid_override = retry.scid
        raise VersionMismatchError(last_vn)

    # -- internals ---------------------------------------------------------------
    def _handshake(
        self,
        version: int,
        vn_seen: bool,
        token: bytes = b"",
        dcid_override: Optional[bytes] = None,
        start: Optional[float] = None,
        retry_seen: bool = False,
    ) -> QuicHandshakeResult:
        if start is None:
            start = self._network.now
        if dcid_override is not None:
            dcid = dcid_override
            scid = self._rng.token(8)
        elif self._config.initial_cids is not None:
            dcid, scid = self._config.initial_cids
        else:
            dcid = self._rng.token(8)
            scid = self._rng.token(8)
        initial_keys = derive_initial_keys(dcid, version)
        fast = self._config.fast_initial_protection
        send_initial = _initial_protection(initial_keys.client, fast)
        recv_initial = _initial_protection(initial_keys.server, fast)

        tls = TlsClientSession(self._config.tls, self._rng.child("tls"))
        client_hello = tls.client_hello()

        payload = fr.encode_frames([fr.CryptoFrame(offset=0, data=client_hello)])
        # Pad to 1200 B analytically so the packet is protected once,
        # not protected, measured, re-encoded and protected again.
        unpadded = _initial_packet_length(len(payload), dcid, scid, token)
        if unpadded < _INITIAL_MIN_SIZE:
            payload = fr.encode_frames(
                [
                    fr.CryptoFrame(offset=0, data=client_hello),
                    fr.PaddingFrame(_INITIAL_MIN_SIZE - unpadded),
                ]
            )
        packet = protect_long(
            send_initial, PacketType.INITIAL, version, dcid, scid, 0, payload, token=token
        )
        # 0-RTT: early data coalesces with the Initial (RFC 9000 §12.2).
        early_sent = False
        if (
            self._config.use_early_data
            and tls.early_traffic_secret is not None
            and self._config.application_streams
        ):
            ticket = self._config.tls.session_ticket
            early_suite = suite_by_id(ticket.cipher_suite_id) if ticket else None
            if early_suite is not None:
                early_keys = quic_protection_keys(early_suite, tls.early_traffic_secret)
                early_frames: List[fr.Frame] = [
                    fr.StreamFrame(stream_id=sid, offset=0, data=data, fin=True)
                    for sid, data in sorted(self._config.application_streams.items())
                ]
                early_packet = protect_long(
                    early_keys,
                    PacketType.ZERO_RTT,
                    version,
                    dcid,
                    scid,
                    0,
                    fr.encode_frames(early_frames),
                )
                packet = packet + early_packet
                early_sent = True
        self._datagrams_sent += 1
        self._socket.send(self._remote[0], self._remote[1], packet)

        crypto_initial = _CryptoStream()
        crypto_handshake = _CryptoStream()
        handshake_buffer = b""
        recv_handshake: Optional[ProtectionKeys] = None
        send_handshake: Optional[ProtectionKeys] = None
        recv_app: Optional[ProtectionKeys] = None
        send_app: Optional[ProtectionKeys] = None
        server_cid: Optional[bytes] = None
        client_finished_sent = False
        streams: Dict[int, bytearray] = {}
        stream_fins: Dict[int, bool] = {}
        handshake_done = False
        post_handshake_buffer = b""
        complete_since: Optional[float] = None
        first_byte_time: Optional[float] = None
        expected_fins = sum(1 for _ in self._config.application_streams)

        deadline = self._network.now + self._config.timeout

        def build_result() -> QuicHandshakeResult:
            return QuicHandshakeResult(
                version=version,
                tls=tls.result,
                transport_params=tls.result.peer_transport_params,
                streams={sid: bytes(buf) for sid, buf in streams.items()},
                # Quantized to nanoseconds: the virtual clock accumulates
                # float additions, so raw differences depend on scan order.
                handshake_rtt=round(self._network.now - start, 9),
                time_to_first_byte=first_byte_time,
                version_negotiation_seen=vn_seen,
                early_data_sent=early_sent,
                retry_seen=retry_seen,
                datagrams_sent=self._datagrams_sent,
                datagrams_received=self._datagrams_received,
            )

        while True:
            remaining = deadline - self._network.now
            if remaining <= 0:
                if complete_since is not None:
                    return build_result()  # done, just no ticket arrived
                raise HandshakeTimeout()
            received = self._socket.receive(remaining)
            if received is None:
                if complete_since is not None:
                    return build_result()
                raise HandshakeTimeout()
            _source, datagram = received
            self._datagrams_received += 1

            offset = 0
            while offset < len(datagram):
                chunk = datagram[offset:]
                if is_long_header(chunk) and len(chunk) >= 5 and chunk[1:5] == b"\x00\x00\x00\x00":
                    vn = decode_version_negotiation(chunk)
                    raise _VersionNegotiationReceived(vn.supported_versions)
                try:
                    if is_long_header(chunk):
                        first_type = PacketType((chunk[0] >> 4) & 0x3)
                        if first_type == PacketType.RETRY:
                            from repro.quic.retry import decode_retry

                            retry = decode_retry(chunk, original_dcid=dcid)
                            raise _RetryReceived(retry.token, retry.scid)
                        if first_type == PacketType.INITIAL:
                            packet_info = unprotect(datagram, offset, recv_initial)
                        elif first_type == PacketType.HANDSHAKE:
                            if recv_handshake is None:
                                break  # keys not ready; drop rest
                            packet_info = unprotect(datagram, offset, recv_handshake)
                        else:
                            break
                    else:
                        if recv_app is None:
                            break
                        packet_info = unprotect(
                            datagram, offset, recv_app, short_header_dcid_length=8
                        )
                except (PacketDecodeError, AeadError):
                    break
                offset += packet_info.consumed

                if packet_info.scid is not None and server_cid is None:
                    server_cid = packet_info.scid

                for frame in fr.decode_frames(packet_info.payload):
                    if isinstance(frame, fr.ConnectionCloseFrame):
                        raise QuicError(
                            frame.error_code,
                            frame.reason,
                            frame.frame_type,
                        )
                    if isinstance(frame, fr.CryptoFrame):
                        if packet_info.packet_type == PacketType.INITIAL:
                            data = crypto_initial.receive(frame.offset, frame.data)
                            if data:
                                tls.process_server_hello(data)
                                assert tls.suite and tls.handshake_secrets
                                send_handshake = quic_protection_keys(
                                    tls.suite, tls.handshake_secrets.client
                                )
                                recv_handshake = quic_protection_keys(
                                    tls.suite, tls.handshake_secrets.server
                                )
                        elif packet_info.packet_type == PacketType.HANDSHAKE:
                            handshake_buffer += crypto_handshake.receive(
                                frame.offset, frame.data
                            )
                            if (
                                handshake_buffer
                                and not client_finished_sent
                                and _flight_complete(handshake_buffer)
                            ):
                                data = bytes(handshake_buffer)
                                finished = tls.process_server_flight(data)
                                assert tls.suite and tls.application_secrets
                                send_app = quic_protection_keys(
                                    tls.suite, tls.application_secrets.client
                                )
                                recv_app = quic_protection_keys(
                                    tls.suite, tls.application_secrets.server
                                )
                                self._send_second_flight(
                                    send_handshake,
                                    send_app,
                                    version,
                                    server_cid or b"",
                                    scid,
                                    finished,
                                    # Early data the server accepted is
                                    # not retransmitted in 1-RTT.
                                    skip_app_streams=early_sent
                                    and tls.result.early_data_accepted,
                                )
                                client_finished_sent = True
                        elif packet_info.packet_type is None:
                            # Post-handshake CRYPTO: NewSessionTicket.
                            post_handshake_buffer += frame.data
                            ticket = tls.process_post_handshake(post_handshake_buffer)
                            if ticket is not None:
                                post_handshake_buffer = b""
                    elif isinstance(frame, fr.StreamFrame):
                        if first_byte_time is None and frame.data:
                            first_byte_time = self._network.now - start
                        buffer = streams.setdefault(frame.stream_id, bytearray())
                        needed = frame.offset + len(frame.data)
                        if len(buffer) < needed:
                            buffer.extend(bytes(needed - len(buffer)))
                        buffer[frame.offset : frame.offset + len(frame.data)] = frame.data
                        if frame.fin:
                            stream_fins[frame.stream_id] = True
                    elif isinstance(frame, fr.HandshakeDoneFrame):
                        handshake_done = True
                    # ACK / MAX_DATA / NEW_CONNECTION_ID are bookkeeping
                    # we do not need for single-exchange scans.

            exchange_complete = client_finished_sent and (
                not self._config.application_streams
                or (handshake_done and len(stream_fins) >= min(1, expected_fins))
            )
            if exchange_complete and self._config.collect_session_ticket:
                # Allow a short grace period for a NewSessionTicket;
                # servers without resumption never send one.
                if tls.result.session_ticket is None:
                    if complete_since is None:
                        complete_since = self._network.now
                        deadline = min(deadline, complete_since + 0.5)
                    exchange_complete = self._network.now >= complete_since + 0.5
            if exchange_complete:
                return build_result()

    def _send_second_flight(
        self,
        send_handshake: Optional[ProtectionKeys],
        send_app: Optional[ProtectionKeys],
        version: int,
        dcid: bytes,
        scid: bytes,
        finished: bytes,
        skip_app_streams: bool = False,
    ) -> None:
        assert send_handshake is not None and send_app is not None
        handshake_payload = fr.encode_frames(
            [
                fr.AckFrame(largest_acknowledged=0, ranges=[(0, 0)]),
                fr.CryptoFrame(offset=0, data=finished),
            ]
        )
        handshake_packet = protect_long(
            send_handshake,
            PacketType.HANDSHAKE,
            version,
            dcid,
            scid,
            0,
            handshake_payload,
        )
        datagrams = [handshake_packet]
        if self._config.application_streams and not skip_app_streams:
            app_frames: List[fr.Frame] = []
            for stream_id, data in sorted(self._config.application_streams.items()):
                app_frames.append(
                    fr.StreamFrame(stream_id=stream_id, offset=0, data=data, fin=True)
                )
            app_packet = protect_short(send_app, dcid, 0, fr.encode_frames(app_frames))
            if len(handshake_packet) + len(app_packet) <= _MAX_DATAGRAM:
                datagrams = [handshake_packet + app_packet]
            else:
                datagrams.append(app_packet)
        for datagram in datagrams:
            self._datagrams_sent += 1
            self._socket.send(self._remote[0], self._remote[1], datagram)


def hashlib_cid(secret: bytes, original_dcid: bytes) -> bytes:
    """Deterministic 8-byte Retry source connection ID."""
    import hashlib

    return hashlib.sha256(secret + b"|cid|" + original_dcid).digest()[:8]


def stateless_reset_token(secret: bytes, connection_id: bytes) -> bytes:
    """The 16-byte stateless reset token for a connection ID
    (RFC 9000 §10.3.2 recommends a keyed pseudorandom function)."""
    import hmac as _hmac

    return _hmac.new(secret, b"reset|" + connection_id, "sha256").digest()[:16]


def stateless_reset_packet(
    secret: bytes, connection_id: bytes, rng: DeterministicRandom
) -> bytes:
    """A stateless reset: looks like a short-header packet with random
    payload, ending in the reset token (RFC 9000 §10.3)."""
    first = 0x40 | (rng.getrandbits(6) & 0x3F)
    unpredictable = rng.token(20)
    return bytes([first]) + unpredictable + stateless_reset_token(secret, connection_id)


class _VersionNegotiationReceived(Exception):
    def __init__(self, versions: Sequence[int]):
        super().__init__("version negotiation received")
        self.versions = list(versions)


class _RetryReceived(Exception):
    def __init__(self, token: bytes, scid: bytes):
        super().__init__("retry received")
        self.token = token
        self.scid = scid


def _flight_complete(data: bytes) -> bool:
    """True when a buffered crypto flight parses through a Finished."""
    from repro.tls.messages import HandshakeType, iter_messages

    try:
        return any(
            msg_type == HandshakeType.FINISHED for msg_type, _body, _raw in iter_messages(data)
        )
    except ValueError:
        return False


def _peek_sni(client_hello_framed: bytes) -> Optional[str]:
    """Extract the SNI from a framed ClientHello without side effects."""
    from repro.tls.extensions import ExtensionType, decode_sni
    from repro.tls.messages import ClientHello, HandshakeType, iter_messages

    try:
        for msg_type, body, _raw in iter_messages(client_hello_framed):
            if msg_type == HandshakeType.CLIENT_HELLO:
                hello = ClientHello.decode(body)
                data = hello.extension(ExtensionType.SERVER_NAME)
                return decode_sni(data) if data else None
    except ValueError:
        return None
    return None


# ---------------------------------------------------------------------------
# Server side
# ---------------------------------------------------------------------------


@dataclass
class QuicServerBehaviour:
    """Behavioural knobs for a simulated QUIC deployment.

    These express the paper's observed quirks as *server* behaviour:

    - ``advertised_versions``: the set answered in Version Negotiation
      (what the ZMap module records),
    - ``handshake_versions``: versions the server actually completes a
      handshake with.  Making this differ from ``advertised_versions``
      reproduces Google's iterative-roll-out version mismatch (§5),
    - ``respond_to_forced_negotiation``: deployments that ignore the
      0x?a?a?a?a probe (missed by ZMap, found via Alt-Svc / DNS),
    - ``respond_without_padding``: the §3.1 ablation — most servers
      ignore Initials below 1200 B,
    - ``silent_handshake``: middlebox artefact — answers VN but drops
      handshake attempts (Akamai/Fastly timeouts in §5.1),
    - ``app_handler``: callable producing per-stream application
      responses, wired to the HTTP/3 layer by the server profiles.
    """

    tls: TlsServerConfig = field(default_factory=TlsServerConfig)
    advertised_versions: Sequence[int] = (QUIC_V1,)
    handshake_versions: Optional[Sequence[int]] = None  # default: advertised
    respond_to_forced_negotiation: bool = True
    respond_without_padding: bool = False
    silent_handshake: bool = False
    alert_reason_text: str = "handshake failure"
    app_handler: Optional[Callable[[Optional[str], int, bytes], Optional[bytes]]] = None
    fast_initial_protection: bool = False
    # Deterministic per-SNI handshake drop (load-balancer flakiness):
    # returning True means the server never answers this handshake.
    drop_predicate: Optional[Callable[[Optional[str]], bool]] = None
    # Close every handshake with this (error_code, reason) instead of
    # running TLS — the "other error" deployments of Table 3.
    close_with: Optional[Tuple[int, str]] = None
    # Address validation: answer token-less Initials with a Retry
    # carrying a stateless token (RFC 9000 §8.1).
    stateless_retry: bool = False
    retry_secret: bytes = b"retry-secret"
    # Stateless reset (RFC 9000 §10.3): answer short-header packets for
    # unknown connections with an unpredictable datagram ending in the
    # 16-byte reset token derived from this secret and the packet DCID.
    stateless_reset_secret: Optional[bytes] = None

    def effective_handshake_versions(self) -> Sequence[int]:
        if self.handshake_versions is None:
            return self.advertised_versions
        return self.handshake_versions


class QuicServerEndpoint(UdpEndpoint):
    """A QUIC server bound to one (address, port) in the simulation."""

    def __init__(self, behaviour: QuicServerBehaviour, seed="quic-server", certificate=None):
        # The behaviour is shared by every endpoint of the same row; what
        # is this endpoint's own is its seed, its draw counters and the
        # ``(chain, key)`` its TLS sessions serve when the behaviour's
        # certificate selector names none.
        self._behaviour = behaviour
        self._seed = seed_value(seed)
        self._certificate = certificate
        # Connection state per client source, by original DCID in
        # creation order; dropped when the client's socket closes.
        self._connections: Dict[Tuple, Dict[bytes, "_ServerConnection"]] = {}
        # Connections accepted so far: each one's RNG child.
        self._accepted = 0
        # Version Negotiation and Retry packets sent so far: each one's
        # first-byte entropy is derived from the seed and this count.
        self._stateless_replies = 0

    def _child(self, *labels) -> DeterministicRandom:
        # What ``DeterministicRandom(seed).child(*labels)`` returns.
        return DeterministicRandom(derive_seed(self._seed, *labels))

    def _entropy(self, bits: int) -> int:
        self._stateless_replies += 1
        return derive_seed(self._seed, "first-byte", self._stateless_replies) >> (64 - bits)

    def forget(self, source) -> None:
        self._connections.pop(source, None)

    def _latest_connection(self, source) -> Optional["_ServerConnection"]:
        """The source's newest connection: Handshake and short-header
        packets carry no original DCID to look it up by."""
        connections = self._connections.get(source)
        if not connections:
            return None
        return next(reversed(connections.values()))

    def datagram_received(self, network, source, data: bytes, reply) -> None:
        if not is_long_header(data):
            connection = self._latest_connection(source)
            if connection is not None:
                connection.handle_short(data, reply)
            elif self._behaviour.stateless_reset_secret is not None and len(data) >= 21:
                reply(
                    stateless_reset_packet(
                        self._behaviour.stateless_reset_secret,
                        data[1:9],
                        self._child("reset", data[1:9]),
                    )
                )
            return
        if len(data) < 7:
            return
        version = int.from_bytes(data[1:5], "big")
        behaviour = self._behaviour

        if version != 0 and version not in behaviour.effective_handshake_versions():
            forced = is_forcing_negotiation(version)
            if forced and not behaviour.respond_to_forced_negotiation:
                return
            if len(data) < _INITIAL_MIN_SIZE and not behaviour.respond_without_padding:
                return
            try:
                dcid_len = data[5]
                dcid = data[6 : 6 + dcid_len]
                scid_len = data[6 + dcid_len]
                scid = data[7 + dcid_len : 7 + dcid_len + scid_len]
            except IndexError:
                return
            # A forced-negotiation probe (the ZMap module) is answered
            # with the *advertised* set; a real Initial carrying an
            # unsupported version gets the set the handshake machinery
            # actually accepts.  Deployments where the two differ
            # reproduce the paper's Google version-mismatch findings.
            if forced:
                offered = list(behaviour.advertised_versions)
            else:
                offered = list(behaviour.effective_handshake_versions())
            reply(
                encode_version_negotiation(
                    dcid=scid,
                    scid=dcid,
                    versions=offered,
                    first_byte_entropy=self._entropy(7),
                )
            )
            return

        if behaviour.silent_handshake:
            return

        packet_type = PacketType((data[0] >> 4) & 0x3)
        if packet_type == PacketType.INITIAL:
            # RFC 9000 §14.1: a server MUST discard Initial packets in
            # datagrams smaller than 1200 B (the §3.1 padding ablation).
            if len(data) < _INITIAL_MIN_SIZE and not behaviour.respond_without_padding:
                return
            try:
                dcid_len = data[5]
                dcid = data[6 : 6 + dcid_len]
            except IndexError:
                return
            if behaviour.stateless_retry:
                from repro.quic.packet import decode_long_header
                from repro.quic.retry import encode_retry, make_token, validate_token

                try:
                    header = decode_long_header(data)
                except PacketDecodeError:
                    return
                client_tag = f"{source[0]}:{source[1]}"
                if not header.token:
                    retry_scid = hashlib_cid(behaviour.retry_secret, dcid)
                    reply(
                        encode_retry(
                            version,
                            dcid=header.scid,
                            scid=retry_scid,
                            token=make_token(behaviour.retry_secret, client_tag, dcid),
                            original_dcid=dcid,
                            first_byte_entropy=self._entropy(4),
                        )
                    )
                    return
                if validate_token(behaviour.retry_secret, client_tag, header.token) is None:
                    return  # invalid token: drop (RFC 9000 §8.1.3)
            connections = self._connections.setdefault(source, {})
            connection = connections.get(dcid)
            if connection is None:
                connection = connections[dcid] = _ServerConnection(
                    behaviour, version, dcid, self._child(self._accepted), self._certificate
                )
                self._accepted += 1
            connection.handle_initial(data, reply)
        elif packet_type == PacketType.HANDSHAKE:
            connection = self._latest_connection(source)
            if connection is not None:
                connection.handle_handshake(data, reply)


class _ServerConnection:
    """Per-connection server state."""

    def __init__(
        self, behaviour: QuicServerBehaviour, version: int, odcid: bytes, rng, certificate=None
    ):
        self._behaviour = behaviour
        self._version = version
        self._rng = rng
        self._certificate = certificate
        self._scid = rng.token(8)
        self._client_cid: Optional[bytes] = None
        initial_keys = derive_initial_keys(odcid, version)
        fast = behaviour.fast_initial_protection
        self._recv_initial = _initial_protection(initial_keys.client, fast)
        self._send_initial = _initial_protection(initial_keys.server, fast)
        self._crypto_initial = _CryptoStream()
        self._crypto_handshake = _CryptoStream()
        self._tls: Optional[TlsServerSession] = None
        self._send_handshake: Optional[ProtectionKeys] = None
        self._recv_handshake: Optional[ProtectionKeys] = None
        self._send_app: Optional[ProtectionKeys] = None
        self._recv_app: Optional[ProtectionKeys] = None
        self._recv_early: Optional[ProtectionKeys] = None  # 0-RTT keys
        self._pn = {"initial": 0, "handshake": 0, "app": 0}
        self._established = False
        # Responses to 0-RTT streams, delivered once the handshake ends.
        self._pending_responses: List[fr.Frame] = []
        self._ticket_sent = False

    def _next_pn(self, space: str) -> int:
        value = self._pn[space]
        self._pn[space] = value + 1
        return value

    def handle_initial(self, datagram: bytes, reply) -> None:
        """Process an Initial plus any coalesced 0-RTT packets."""
        offset = 0
        while offset < len(datagram):
            chunk = datagram[offset:]
            if not is_long_header(chunk):
                self.handle_short(chunk, reply)
                return
            packet_type = PacketType((chunk[0] >> 4) & 0x3)
            if packet_type == PacketType.INITIAL:
                try:
                    packet = unprotect(datagram, offset, self._recv_initial)
                except (PacketDecodeError, AeadError):
                    return
                offset += packet.consumed
                self._client_cid = packet.scid
                for frame in fr.decode_frames(packet.payload):
                    if isinstance(frame, fr.CryptoFrame):
                        data = self._crypto_initial.receive(frame.offset, frame.data)
                        if data and self._tls is None:
                            self._run_tls(data, reply)
            elif packet_type == PacketType.ZERO_RTT and self._recv_early is not None:
                try:
                    packet = unprotect(datagram, offset, self._recv_early)
                except (PacketDecodeError, AeadError):
                    return
                offset += packet.consumed
                self._handle_early_streams(packet.payload)
                # Answer early data immediately (the 0-RTT latency win):
                # the server already holds 1-RTT send keys.
                if self._pending_responses and self._send_app is not None:
                    payload = fr.encode_frames(self._pending_responses)
                    self._pending_responses = []
                    reply(
                        protect_short(
                            self._send_app,
                            self._client_cid or b"",
                            self._next_pn("app"),
                            payload,
                        )
                    )
            else:
                return  # 0-RTT without accepted keys, or unexpected type

    def _handle_early_streams(self, payload: bytes) -> None:
        tls = self._tls
        alpn = tls.result.alpn if tls is not None else None
        try:
            frames = fr.decode_frames(payload)
        except fr.FrameDecodeError:
            return
        for frame in frames:
            if isinstance(frame, fr.StreamFrame) and self._behaviour.app_handler:
                response = self._behaviour.app_handler(
                    alpn, frame.stream_id, bytes(frame.data)
                )
                if response is not None:
                    self._pending_responses.append(
                        fr.StreamFrame(
                            stream_id=frame.stream_id, offset=0, data=response, fin=True
                        )
                    )

    def _run_tls(self, client_hello: bytes, reply) -> None:
        behaviour = self._behaviour
        if behaviour.close_with is not None:
            error_code, reason = behaviour.close_with
            payload = fr.encode_frames(
                [fr.ConnectionCloseFrame(error_code=error_code, frame_type=0x06, reason=reason)]
            )
            reply(
                protect_long(
                    self._send_initial,
                    PacketType.INITIAL,
                    self._version,
                    self._client_cid or b"",
                    self._scid,
                    self._next_pn("initial"),
                    payload,
                )
            )
            return
        tls = TlsServerSession(behaviour.tls, self._rng.child("tls"), self._certificate)
        self._tls = tls
        if behaviour.drop_predicate is not None:
            # Peek at the SNI (cheap parse, no flight construction) to
            # decide whether this handshake is silently dropped.
            probe_sni = _peek_sni(client_hello)
            if behaviour.drop_predicate(probe_sni):
                return
        try:
            flight = tls.process_client_hello(client_hello)
        except AlertError as alert:
            payload = fr.encode_frames(
                [
                    fr.ConnectionCloseFrame(
                        error_code=crypto_error(int(alert.description)),
                        frame_type=0x06,
                        reason=behaviour.alert_reason_text,
                    )
                ]
            )
            reply(
                protect_long(
                    self._send_initial,
                    PacketType.INITIAL,
                    self._version,
                    self._client_cid or b"",
                    self._scid,
                    self._next_pn("initial"),
                    payload,
                )
            )
            return

        assert tls.suite and tls.handshake_secrets and tls.application_secrets
        self._send_handshake = quic_protection_keys(tls.suite, tls.handshake_secrets.server)
        self._recv_handshake = quic_protection_keys(tls.suite, tls.handshake_secrets.client)
        self._send_app = quic_protection_keys(tls.suite, tls.application_secrets.server)
        self._recv_app = quic_protection_keys(tls.suite, tls.application_secrets.client)
        if tls.early_traffic_secret is not None:
            self._recv_early = quic_protection_keys(tls.suite, tls.early_traffic_secret)

        initial_payload = fr.encode_frames(
            [
                fr.AckFrame(largest_acknowledged=0, ranges=[(0, 0)]),
                fr.CryptoFrame(offset=0, data=flight.server_hello),
            ]
        )
        initial_packet = protect_long(
            self._send_initial,
            PacketType.INITIAL,
            self._version,
            self._client_cid or b"",
            self._scid,
            self._next_pn("initial"),
            initial_payload,
        )
        # Split the encrypted flight across Handshake packets.
        datagrams = [initial_packet]
        flight_data = flight.encrypted_flight
        offset = 0
        chunk_size = 1100
        while offset < len(flight_data):
            chunk = flight_data[offset : offset + chunk_size]
            payload = fr.encode_frames([fr.CryptoFrame(offset=offset, data=chunk)])
            packet = protect_long(
                self._send_handshake,
                PacketType.HANDSHAKE,
                self._version,
                self._client_cid or b"",
                self._scid,
                self._next_pn("handshake"),
                payload,
            )
            if len(datagrams[-1]) + len(packet) <= _MAX_DATAGRAM:
                datagrams[-1] += packet
            else:
                datagrams.append(packet)
            offset += chunk_size
        for datagram in datagrams:
            reply(datagram)

    def handle_handshake(self, datagram: bytes, reply) -> None:
        offset = 0
        responses: List[fr.Frame] = []
        while offset < len(datagram):
            chunk = datagram[offset:]
            try:
                if is_long_header(chunk):
                    if self._recv_handshake is None:
                        return
                    packet = unprotect(datagram, offset, self._recv_handshake)
                else:
                    self.handle_short(chunk, reply)
                    return
            except (PacketDecodeError, AeadError):
                return
            offset += packet.consumed
            for frame in fr.decode_frames(packet.payload):
                if isinstance(frame, fr.CryptoFrame):
                    data = self._crypto_handshake.receive(frame.offset, frame.data)
                    if data and self._tls is not None and not self._established:
                        try:
                            self._tls.process_client_finished(data)
                        except AlertError:
                            return
                        self._established = True
                        self._send_completion(reply)

    def _completion_frames(self) -> List[fr.Frame]:
        """HANDSHAKE_DONE plus pending 0-RTT responses and a ticket."""
        frames: List[fr.Frame] = [fr.HandshakeDoneFrame()]
        frames.extend(self._pending_responses)
        self._pending_responses = []
        if not self._ticket_sent and self._tls is not None:
            ticket = self._tls.issue_ticket()
            if ticket is not None:
                frames.append(fr.CryptoFrame(offset=0, data=ticket))
            self._ticket_sent = True
        return frames

    def _send_completion(self, reply) -> None:
        """1-RTT flight sent right after the client Finished arrives."""
        if self._send_app is None:
            return
        payload = fr.encode_frames(self._completion_frames())
        reply(
            protect_short(
                self._send_app, self._client_cid or b"", self._next_pn("app"), payload
            )
        )

    def handle_short(self, data: bytes, reply) -> None:
        if self._recv_app is None or not self._established:
            return
        try:
            packet = unprotect(data, 0, self._recv_app, short_header_dcid_length=8)
        except (PacketDecodeError, AeadError):
            return
        response_frames: List[fr.Frame] = self._completion_frames()
        tls = self._tls
        alpn = tls.result.alpn if tls is not None else None
        for frame in fr.decode_frames(packet.payload):
            if isinstance(frame, fr.StreamFrame) and self._behaviour.app_handler:
                response = self._behaviour.app_handler(alpn, frame.stream_id, bytes(frame.data))
                if response is not None:
                    response_frames.append(
                        fr.StreamFrame(
                            stream_id=frame.stream_id, offset=0, data=response, fin=True
                        )
                    )
        response_frames.append(fr.AckFrame(largest_acknowledged=packet.packet_number,
                                           ranges=[(packet.packet_number, packet.packet_number)]))
        assert self._send_app is not None
        payload = fr.encode_frames(response_frames)
        reply(protect_short(self._send_app, self._client_cid or b"", self._next_pn("app"), payload))
