"""Transport parameter codec and fingerprint tests."""

from hypothesis import given, strategies as st

from repro.quic.transport_params import DEFAULT_MAX_UDP_PAYLOAD_SIZE, TransportParameters
from repro.quic.varint import encode_varint
from tests.codec_oracle import Buffer


def test_roundtrip_all_fields():
    params = TransportParameters(
        original_destination_connection_id=b"\x01" * 8,
        max_idle_timeout=30000,
        stateless_reset_token=b"\x02" * 16,
        max_udp_payload_size=1452,
        initial_max_data=1048576,
        initial_max_stream_data_bidi_local=262144,
        initial_max_stream_data_bidi_remote=262144,
        initial_max_stream_data_uni=131072,
        initial_max_streams_bidi=100,
        initial_max_streams_uni=3,
        ack_delay_exponent=3,
        max_ack_delay=25,
        disable_active_migration=True,
        active_connection_id_limit=4,
        initial_source_connection_id=b"\x03" * 8,
        retry_source_connection_id=b"\x04" * 8,
    )
    decoded = TransportParameters.decode(params.encode())
    assert decoded == params


def test_absent_fields_stay_none():
    decoded = TransportParameters.decode(TransportParameters().encode())
    assert decoded.initial_max_data is None
    assert decoded.disable_active_migration is False


def test_unknown_parameters_ignored():
    buf = Buffer()
    buf.push_varint(0x7F)  # unknown id
    buf.push_varint(3)
    buf.push_bytes(b"abc")
    buf.push_varint(0x04)  # initial_max_data
    value = encode_varint(4096)
    buf.push_varint(len(value))
    buf.push_bytes(value)
    decoded = TransportParameters.decode(buf.data())
    assert decoded.initial_max_data == 4096


def test_fingerprint_excludes_session_specific():
    base = TransportParameters(initial_max_data=1000)
    with_session = TransportParameters(
        initial_max_data=1000,
        stateless_reset_token=b"\x09" * 16,
        initial_source_connection_id=b"\x01" * 8,
        original_destination_connection_id=b"\x02" * 8,
    )
    assert base.fingerprint() == with_session.fingerprint()


def test_fingerprint_distinguishes_configs():
    a = TransportParameters(initial_max_data=1000)
    b = TransportParameters(initial_max_data=2000)
    assert a.fingerprint() != b.fingerprint()


def test_effective_max_udp_payload_size_default():
    assert TransportParameters().effective_max_udp_payload_size() == DEFAULT_MAX_UDP_PAYLOAD_SIZE
    assert TransportParameters(max_udp_payload_size=1500).effective_max_udp_payload_size() == 1500


def test_describe_mentions_non_defaults():
    text = TransportParameters(initial_max_data=4096).describe()
    assert "initial_max_data=4096" in text
    assert TransportParameters().describe() == "(all defaults)"


@given(
    max_data=st.one_of(st.none(), st.integers(min_value=0, max_value=(1 << 60))),
    max_udp=st.one_of(st.none(), st.integers(min_value=1200, max_value=65527)),
    migration=st.booleans(),
)
def test_roundtrip_property(max_data, max_udp, migration):
    params = TransportParameters(
        initial_max_data=max_data,
        max_udp_payload_size=max_udp,
        disable_active_migration=migration,
    )
    assert TransportParameters.decode(params.encode()) == params
