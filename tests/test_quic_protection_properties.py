"""Property-based tests for QUIC packet protection and IPv6 scans."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.quic.initial_aead import derive_initial_keys
from repro.quic.packet import PacketType
from repro.quic.protection import ProtectionKeys, protect_long, protect_short, unprotect


def _protection(direction) -> ProtectionKeys:
    aead = direction.aead()
    return ProtectionKeys(
        seal=aead.seal, open=aead.open, iv=direction.iv, header_mask=direction.header_mask
    )


@settings(max_examples=15, deadline=None)
@given(
    dcid=st.binary(min_size=4, max_size=20),
    scid=st.binary(min_size=0, max_size=20),
    pn=st.integers(min_value=0, max_value=(1 << 30)),
    payload=st.binary(min_size=4, max_size=600),
)
def test_long_header_protect_unprotect_roundtrip(dcid, scid, pn, payload):
    keys = derive_initial_keys(dcid, 1)
    protection = _protection(keys.client)
    packet = protect_long(
        protection, PacketType.INITIAL, 1, dcid, scid, pn, payload, pn_length=4
    )
    unprotected = unprotect(packet, 0, protection, largest_pn=pn - 1)
    assert unprotected.packet_number == pn
    assert unprotected.payload == payload
    assert unprotected.dcid == dcid
    assert unprotected.scid == scid


@settings(max_examples=15, deadline=None)
@given(
    pn=st.integers(min_value=0, max_value=(1 << 16)),
    payload=st.binary(min_size=4, max_size=300),
    pn_length=st.sampled_from([1, 2, 3, 4]),
)
def test_short_header_roundtrip_all_pn_lengths(pn, payload, pn_length):
    keys = derive_initial_keys(b"\x42" * 8, 1)
    protection = _protection(keys.server)
    packet = protect_short(protection, b"\x11" * 8, pn, payload, pn_length=pn_length)
    unprotected = unprotect(
        packet, 0, protection, largest_pn=pn - 1, short_header_dcid_length=8
    )
    assert unprotected.packet_number == pn
    assert unprotected.payload == payload


@settings(max_examples=15, deadline=None)
@given(
    payload=st.binary(min_size=20, max_size=200),
    flip=st.integers(min_value=0, max_value=10_000),
)
def test_any_bitflip_detected(payload, flip):
    keys = derive_initial_keys(b"\x13" * 8, 1)
    protection = _protection(keys.client)
    packet = bytearray(
        protect_long(protection, PacketType.INITIAL, 1, b"\x13" * 8, b"", 0, payload)
    )
    index = flip % len(packet)
    bit = 1 << (flip % 8)
    packet[index] ^= bit
    try:
        unprotected = unprotect(bytes(packet), 0, protection)
    except Exception:
        return  # rejected: decode error or AEAD failure — both fine
    # The only acceptable "success" is flipping unauthenticated bits
    # that still authenticate — impossible: every bit of a long-header
    # packet through the payload is covered by AEAD or header
    # protection, so reaching here means the flip was reverted by
    # header protection masking in a way that kept the AAD identical.
    assert unprotected.payload == payload


def test_coalesced_packets_parse_sequentially():
    keys = derive_initial_keys(b"\x77" * 8, 1)
    protection = _protection(keys.client)
    first = protect_long(protection, PacketType.INITIAL, 1, b"\x77" * 8, b"s", 0, b"one")
    second = protect_long(protection, PacketType.HANDSHAKE, 1, b"\x77" * 8, b"s", 0, b"two")
    datagram = first + second
    parsed_first = unprotect(datagram, 0, protection)
    assert parsed_first.payload == b"one"
    assert parsed_first.consumed == len(first)
    parsed_second = unprotect(datagram, parsed_first.consumed, protection)
    assert parsed_second.payload == b"two"
    assert parsed_second.packet_type is PacketType.HANDSHAKE


# -- IPv6 end-to-end ------------------------------------------------------------


def test_quic_over_ipv6():
    from repro.crypto.rand import DeterministicRandom
    from repro.netsim.addresses import IPv6Address
    from repro.netsim.topology import Network
    from repro.quic.connection import (
        QuicClientConfig,
        QuicClientConnection,
        QuicServerBehaviour,
        QuicServerEndpoint,
    )
    from repro.quic.transport_params import TransportParameters
    from repro.quic.versions import QUIC_V1
    from repro.tls.certificates import CertificateAuthority
    from repro.tls.engine import TlsClientConfig, TlsServerConfig

    ca = CertificateAuthority(seed="v6-tests", key_bits=512)
    cert, key = ca.issue("v6.example", ["v6.example"], key_bits=512)
    net = Network(seed=6)
    server = IPv6Address.parse("2001:db8::443")
    client = IPv6Address.parse("2001:db8:ffff::1")
    net.bind_udp(
        server,
        443,
        QuicServerEndpoint(
            QuicServerBehaviour(
                tls=TlsServerConfig(
                    select_certificate=lambda sni: ([cert, ca.root], key),
                    alpn_protocols=("h3",),
                    transport_params=TransportParameters(),
                ),
                advertised_versions=(QUIC_V1,),
                app_handler=lambda alpn, sid, data: b"v6-ok",
            )
        ),
    )
    config = QuicClientConfig(
        versions=(QUIC_V1,),
        tls=TlsClientConfig(server_name="v6.example", alpn=("h3",),
                            transport_params=TransportParameters()),
        application_streams={0: b"ping"},
    )
    result = QuicClientConnection(net, client, server, 443, config, DeterministicRandom("v6")).connect()
    assert result.streams[0] == b"v6-ok"


# Golden nonces, recorded before ``ProtectionKeys.nonce`` became one
# integer XOR: packet numbers up to 2^62-1 against two IVs.
@pytest.mark.parametrize(
    "iv,nonces",
    [
        (
            "000102030405060708090a0b",
            [
                "000102030405060708090a0b",
                "000102030405060708090a0a",
                "000102030405060708090b0b",
                "000102030405060608090a0b",
                "000102033bfaf9f8f7f6f5f4",
            ],
        ),
        (
            "fa044b2f42a3fd3b46fb255c",
            [
                "fa044b2f42a3fd3b46fb255c",
                "fa044b2f42a3fd3b46fb255d",
                "fa044b2f42a3fd3b46fb245c",
                "fa044b2f42a3fd3a46fb255c",
                "fa044b2f7d5c02c4b904daa3",
            ],
        ),
    ],
)
def test_packet_nonce_golden(iv, nonces):
    keys = ProtectionKeys(seal=None, open=None, iv=bytes.fromhex(iv), header_mask=None)
    numbers = [0, 1, 2**8, 2**32, 2**62 - 1]
    assert [keys.nonce(number).hex() for number in numbers] == nonces
