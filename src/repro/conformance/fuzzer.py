"""Deterministic mutation fuzzer over every parser entry point.

Each iteration is a pure function of ``(campaign seed, iteration
index)``: the index picks the target module round-robin, a
:class:`~repro.conformance.rng.XorShift64` derived from the pair picks
a seed input from that target's corpus and drives a stack of mutators
(bit flips, byte sets, truncation, extension, splicing, length-field
tweaks).  No state crosses iterations, so a crash replays from its
``(seed, iteration)`` pair alone (:meth:`FuzzCrash.repro_hint` names
both).

Two oracles judge every mutated input:

- **no-crash** — a parser may *reject* the input with its typed
  protocol error (:class:`PacketDecodeError`,
  :class:`FrameDecodeError`, :class:`QpackError`, ...), but any other
  exception escaping the entry point is a crash;
- **round-trip** — where a module has a faithful encoder,
  ``decode(encode(decode(x)))`` must equal ``decode(x)``; a violation
  is reported as a crash of the round-trip oracle.

Counters: ``conform.fuzz_ok{module}``, ``conform.fuzz_rejects{module}``
and ``conform.fuzz_crashes{module}`` land in the current
:class:`MetricsRegistry` exactly as scan counters do, so they merge
into ``metrics.json`` through the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.conformance.rng import XorShift64
from repro.observability.metrics import MetricsRegistry

__all__ = [
    "FuzzTarget",
    "FuzzCrash",
    "FuzzResult",
    "build_targets",
    "mutate",
    "run_fuzz",
]


@dataclass(frozen=True)
class FuzzTarget:
    """One parser entry point under fuzz."""

    name: str  # module label, e.g. "quic.frames"
    seeds: Tuple[bytes, ...]  # valid wire images to mutate from
    parse: Callable[[bytes], object]
    rejects: Tuple[type, ...]  # typed protocol errors = clean reject
    roundtrip: Optional[Callable[[object], None]] = None  # raises on violation


@dataclass(frozen=True)
class FuzzCrash:
    """An unclassified exception (or oracle violation) with its repro."""

    module: str
    iteration: int
    data: bytes
    error: str

    def repro_hint(self, seed: int) -> str:
        return (
            f"{self.module} iteration {self.iteration} (seed {seed}): {self.error}; "
            f"input {self.data.hex() or '(empty)'}"
        )


@dataclass
class FuzzResult:
    seed: int
    iterations: int
    crashes: List[FuzzCrash]
    registry: MetricsRegistry

    @property
    def ok(self) -> bool:
        return not self.crashes


# ---------------------------------------------------------------------------
# Mutators
# ---------------------------------------------------------------------------


def _bit_flip(data: bytearray, rng: XorShift64) -> None:
    for _ in range(1 + rng.below(8)):
        position = rng.below(len(data))
        data[position] ^= 1 << rng.below(8)


def _byte_set(data: bytearray, rng: XorShift64) -> None:
    for _ in range(1 + rng.below(4)):
        data[rng.below(len(data))] = rng.below(256)


def _truncate(data: bytearray, rng: XorShift64) -> None:
    del data[rng.below(len(data)):]


def _extend(data: bytearray, rng: XorShift64) -> None:
    position = rng.below(len(data) + 1)
    data[position:position] = rng.bytes(1 + rng.below(8))


def _splice(data: bytearray, rng: XorShift64) -> None:
    length = 1 + rng.below(max(1, len(data) // 2))
    source = rng.below(len(data))
    dest = rng.below(len(data))
    chunk = bytes(data[source : source + length])
    data[dest : dest + len(chunk)] = chunk


def _length_tweak(data: bytearray, rng: XorShift64) -> None:
    # Nudge a byte up or down a little: near-valid length fields are
    # how truncation and overlap bugs get reached.
    position = rng.below(len(data))
    delta = 1 + rng.below(4)
    if rng.chance(1, 2):
        delta = -delta
    data[position] = (data[position] + delta) % 256


_MUTATORS: Tuple[Callable[[bytearray, XorShift64], None], ...] = (
    _bit_flip,
    _byte_set,
    _truncate,
    _extend,
    _splice,
    _length_tweak,
)


def mutate(seed_input: bytes, rng: XorShift64) -> bytes:
    """Apply 1-3 randomly chosen mutators to a corpus entry."""
    data = bytearray(seed_input)
    for _ in range(1 + rng.below(3)):
        if not data:
            data[:] = rng.bytes(1 + rng.below(8))
        rng.choice(_MUTATORS)(data, rng)
    return bytes(data)


# ---------------------------------------------------------------------------
# Targets: one per hardened parser entry point
# ---------------------------------------------------------------------------


def _seed_corpus():
    """Valid wire images per module, built from the golden vectors."""
    from repro.conformance import vectors as v
    from repro.quic.frames import encode_frames, PaddingFrame, StreamFrame
    from repro.quic.packet import encode_long_header, encode_short_header, PacketType
    from repro.quic.retry import encode_retry
    from repro.quic.transport_params import TransportParameters
    from repro.http.qpack import encode_header_block
    from repro.tls.record import encode_alert
    from repro.tls.alerts import AlertDescription
    from repro.tls.extensions import encode_alpn, encode_psk_client, encode_sni

    long_header, _ = encode_long_header(
        PacketType.HANDSHAKE, 1, v._A_DCID, v._A_SCID, 7, 32, packet_number_length=2
    )
    short_header, _ = encode_short_header(v._A_DCID, 9000, 2)
    retry = encode_retry(1, b"", v._A_SCID, b"token", v._A_DCID)
    frames = bytes.fromhex(v._FRAMES_HEX) + encode_frames(
        [PaddingFrame(4), StreamFrame(stream_id=0, offset=0, data=b"GET /", fin=True)]
    )
    return {
        "quic.varint": tuple(bytes.fromhex(h) for h, _ in v._VARINT_VECTORS),
        "quic.packet": (
            bytes.fromhex(v._VN_HEX),
            long_header + bytes(34),
            short_header + bytes(20),
            retry,
        ),
        "quic.transport_params": (
            bytes.fromhex(v._A2_TPARAMS_HEX),
            TransportParameters(disable_active_migration=True, max_udp_payload_size=1472).encode(),
        ),
        "quic.frames": (frames,),
        "http.altsvc": (
            b'h3-29=":443"; ma=86400, h3-27=":443"',
            b'h3="alt.example.com:8443"; ma=3600',
            b"clear",
        ),
        "http.qpack": (
            encode_header_block(
                [(":method", "GET"), (":path", "/"), ("x-quic", "9000"), ("age", "600")]
            ),
        ),
        "dns.records": (bytes.fromhex(v._HTTPS_RDATA_HEX),),
        "tls.messages": (v._A2_CRYPTO_FRAME[4:],),
        # The first byte picks the decoder (see _parse_tls_extension).
        "tls.extensions": (
            b"\x00" + encode_sni("www.example.com"),
            b"\x01" + encode_alpn(["h3", "h3-29"]),
            b"\x02" + encode_psk_client(b"ticket-identity", bytes(range(32)), 1234),
        ),
        "tls.record": (
            encode_alert(AlertDescription.HANDSHAKE_FAILURE),
            b"\x16\x03\x03\x00\x04\x08\x00\x00\x00",
        ),
        "netsim.paths": (
            b"baseline",
            b"geo-satellite",
            b"bufferbloat,queue=120kb",
            b"rate=2mbps,rtt=600ms",
            b"rate=500kbps,loss=5%,burst=9kb",
            b"up=1mbps,down=10mbps,rtt=40ms",
        ),
    }


def _parse_packet(data: bytes):
    from repro.quic.packet import (
        PacketDecodeError,
        decode_long_header,
        decode_short_header,
        decode_version_negotiation,
    )
    from repro.quic.retry import decode_retry

    if not data:
        raise PacketDecodeError("empty datagram")
    if data[0] & 0x80:
        if len(data) >= 5 and data[1:5] == b"\x00\x00\x00\x00":
            return decode_version_negotiation(data)
        if ((data[0] >> 4) & 0x3) == 0x3 and len(data) >= 5:
            return decode_retry(data)
        return decode_long_header(data)
    return decode_short_header(data, 8)


def _parse_tls_messages(data: bytes):
    from repro.tls.messages import (
        ClientHello,
        EncryptedExtensions,
        HandshakeType,
        ServerHello,
        iter_messages,
    )

    decoded = []
    for msg_type, body, _raw in iter_messages(data):
        if msg_type == HandshakeType.CLIENT_HELLO:
            decoded.append(ClientHello.decode(body))
        elif msg_type == HandshakeType.SERVER_HELLO:
            decoded.append(ServerHello.decode(body))
        elif msg_type == HandshakeType.ENCRYPTED_EXTENSIONS:
            decoded.append(EncryptedExtensions.decode(body))
    return decoded


def _parse_tls_extension(data: bytes):
    """One extension payload; its first byte picks the decoder."""
    from repro.tls.extensions import decode_alpn, decode_psk_client, decode_sni

    if not data:
        return None
    return (decode_sni, decode_alpn, decode_psk_client)[data[0] % 3](data[1:])


def build_targets() -> Tuple[FuzzTarget, ...]:
    """The registry of fuzzed entry points with their typed reject sets."""
    from repro.dns.records import DnsWireError, HttpsRecord
    from repro.http.altsvc import parse_alt_svc
    from repro.http.qpack import QpackError, decode_header_block, encode_header_block
    from repro.netsim.paths import PathSpecError, parse_path_spec
    from repro.quic.frames import FrameDecodeError, decode_frames, encode_frames
    from repro.quic.packet import PacketDecodeError
    from repro.quic.transport_params import TransportParameterError, TransportParameters
    from repro.quic.varint import decode_varint, encode_varint
    from repro.tls.alerts import AlertError
    from repro.tls.messages import MessageDecodeError
    from repro.tls.record import RecordDecodeError, RecordLayer

    corpus = _seed_corpus()

    def varint_roundtrip(result) -> None:
        value, _end = result
        assert decode_varint(encode_varint(value), 0)[0] == value, "varint round-trip"

    def tparams_roundtrip(params) -> None:
        assert TransportParameters.decode(params.encode()) == params, (
            "transport-parameter round-trip"
        )

    def frames_roundtrip(frames) -> None:
        assert decode_frames(encode_frames(frames)) == frames, "frame round-trip"

    def qpack_roundtrip(headers) -> None:
        assert decode_header_block(encode_header_block(headers)) == headers, (
            "QPACK round-trip"
        )

    def dns_roundtrip(record) -> None:
        assert HttpsRecord.decode_rdata(record.name, record.encode_rdata()) == record, (
            "HTTPS RDATA round-trip"
        )

    def path_spec_roundtrip(spec) -> None:
        assert parse_path_spec(spec.canonical()) == spec, "path-spec round-trip"

    return (
        FuzzTarget(
            "quic.varint",
            corpus["quic.varint"],
            lambda data: decode_varint(data, 0),
            (ValueError,),
            varint_roundtrip,
        ),
        FuzzTarget("quic.packet", corpus["quic.packet"], _parse_packet, (PacketDecodeError,)),
        FuzzTarget(
            "quic.transport_params",
            corpus["quic.transport_params"],
            TransportParameters.decode,
            (TransportParameterError,),
            tparams_roundtrip,
        ),
        FuzzTarget(
            "quic.frames",
            corpus["quic.frames"],
            decode_frames,
            (FrameDecodeError,),
            frames_roundtrip,
        ),
        # Alt-Svc parsing is deliberately tolerant: no exception of any
        # kind may escape, so the reject set is empty.
        FuzzTarget(
            "http.altsvc",
            corpus["http.altsvc"],
            lambda data: parse_alt_svc(data.decode("utf-8", errors="replace")),
            (),
        ),
        FuzzTarget(
            "http.qpack",
            corpus["http.qpack"],
            decode_header_block,
            (QpackError,),
            qpack_roundtrip,
        ),
        FuzzTarget(
            "dns.records",
            corpus["dns.records"],
            lambda data: HttpsRecord.decode_rdata("fuzz.example", data),
            (DnsWireError,),
            dns_roundtrip,
        ),
        FuzzTarget(
            "tls.messages", corpus["tls.messages"], _parse_tls_messages, (MessageDecodeError,)
        ),
        FuzzTarget(
            "tls.extensions", corpus["tls.extensions"], _parse_tls_extension, (MessageDecodeError,)
        ),
        FuzzTarget(
            "tls.record",
            corpus["tls.record"],
            lambda data: RecordLayer().unwrap(data),
            (RecordDecodeError, AlertError),
        ),
        # The scenario-matrix path-spec grammar (docs/SCENARIOS.md): a
        # text parser, so mutated bytes go through a lossy decode; any
        # malformed spec must surface as PathSpecError, nothing else.
        FuzzTarget(
            "netsim.paths",
            corpus["netsim.paths"],
            lambda data: parse_path_spec(data.decode("utf-8", errors="replace")),
            (PathSpecError,),
            path_spec_roundtrip,
        ),
    )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def run_iteration(
    seed: int,
    index: int,
    targets: Tuple[FuzzTarget, ...],
    registry: MetricsRegistry,
) -> Optional[FuzzCrash]:
    """One fully deterministic fuzz iteration; returns a crash or None."""
    rng = XorShift64.for_iteration(seed, index)
    target = targets[index % len(targets)]
    data = mutate(rng.choice(target.seeds), rng)
    try:
        result = target.parse(data)
        if target.roundtrip is not None:
            target.roundtrip(result)
    except target.rejects:
        registry.counter("conform.fuzz_rejects", module=target.name).inc()
        return None
    except Exception as error:
        registry.counter("conform.fuzz_crashes", module=target.name).inc()
        return FuzzCrash(
            module=target.name,
            iteration=index,
            data=data,
            error=f"{type(error).__name__}: {error}",
        )
    registry.counter("conform.fuzz_ok", module=target.name).inc()
    return None


def run_fuzz(
    seed: int, iterations: int, registry: Optional[MetricsRegistry] = None
) -> FuzzResult:
    """Run a campaign's ``iterations`` in order."""
    registry = registry if registry is not None else MetricsRegistry()
    targets = build_targets()
    crashes: List[FuzzCrash] = []
    for index in range(iterations):
        crash = run_iteration(seed, index, targets, registry)
        if crash is not None:
            crashes.append(crash)
    return FuzzResult(seed=seed, iterations=iterations, crashes=crashes, registry=registry)

