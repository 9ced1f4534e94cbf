"""X25519 tests against RFC 7748 vectors and DH properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.x25519 import X25519_BASEPOINT, _comb_table, x25519, x25519_base


def test_rfc7748_vector_1():
    scalar = bytes.fromhex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
    u = bytes.fromhex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c")
    assert x25519(scalar, u).hex() == (
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
    )


def test_rfc7748_vector_2():
    scalar = bytes.fromhex("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d")
    u = bytes.fromhex("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493")
    assert x25519(scalar, u).hex() == (
        "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
    )


def test_rfc7748_alice_bob():
    alice_private = bytes.fromhex(
        "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"
    )
    bob_private = bytes.fromhex(
        "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"
    )
    alice_public = x25519_base(alice_private)
    bob_public = x25519_base(bob_private)
    assert alice_public.hex() == (
        "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
    )
    assert bob_public.hex() == (
        "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
    )
    shared = bytes.fromhex("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742")
    assert x25519(alice_private, bob_public) == shared
    assert x25519(bob_private, alice_public) == shared


@settings(max_examples=10, deadline=None)
@given(a=st.binary(min_size=32, max_size=32), b=st.binary(min_size=32, max_size=32))
def test_dh_symmetry(a, b):
    assert x25519(a, x25519_base(b)) == x25519(b, x25519_base(a))


def test_basepoint_constant():
    assert X25519_BASEPOINT[0] == 9
    assert all(byte == 0 for byte in X25519_BASEPOINT[1:])


@settings(max_examples=10, deadline=None)
@given(k=st.binary(min_size=32, max_size=32))
def test_fixed_base_comb_equals_ladder(k):
    assert x25519_base(k) == x25519(k, X25519_BASEPOINT)


# Scalars whose signed base-256 recoding hits the carry edges a random
# draw rarely does (after clamping: byte 0 &= 248, byte 31 = 64..127).
SIGNED_DIGIT_EDGES = {
    "all-ff": b"\xff" * 32,  # 255 + carry = 256: digit 0, carry again
    "all-80": b"\x80" * 32,  # every digit exactly 128, no carry
    "all-81": b"\x81" * 32,  # 129 -> -127 with a carry
    "7f-80": b"\x7f\x80" * 16,
    "80-7f": b"\x80\x7f" * 16,
    "top-127-carry-in": bytes(30) + b"\xff\x7f",  # last digit 127 + 1 = 128
    "rfc7748-alice": bytes.fromhex(
        "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"
    ),
    "rfc7748-bob": bytes.fromhex(
        "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"
    ),
}


@pytest.mark.parametrize("name", sorted(SIGNED_DIGIT_EDGES))
def test_fixed_base_comb_signed_digit_edges(name):
    k = SIGNED_DIGIT_EDGES[name]
    assert x25519_base(k) == x25519(k, X25519_BASEPOINT)


def test_comb_table_keeps_half_the_multiples():
    table = _comb_table()
    assert len(table) == 32
    assert {len(row) for row in table} == {128}


# RFC 7748 section 5.2: k, u = X25519(k, u), k starting from k = u = 9.  The
# RFC pins iterations 1 and 1,000; the (k, u) pair after 500 splits the
# second vector into two halves that chain to it.
ITERATED = {
    0: (X25519_BASEPOINT.hex(), X25519_BASEPOINT.hex()),
    1: (
        "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079",
        X25519_BASEPOINT.hex(),
    ),
    500: (
        "ee02e4dc8b2e74d8d3f639ff1dd40333160acdeaa30c0ea294c8bc42af097956",
        "d9213fd1a4768a016038936bae5e7ef970ae9be0ed7a84416ab9e86d39b04e21",
    ),
    1000: ("684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51", None),
}


@pytest.mark.parametrize("start,stop", [(0, 1), (0, 500), (500, 1000)])
def test_rfc7748_iterated(start, stop):
    k, u = (bytes.fromhex(value) for value in ITERATED[start])
    for _ in range(stop - start):
        k, u = x25519(k, u), k
    expected_k, expected_u = ITERATED[stop]
    assert k.hex() == expected_k
    assert expected_u is None or u.hex() == expected_u


_P = 2**255 - 19
LOW_ORDER_U = [
    0,
    1,
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
    _P - 1,
    _P,
    _P + 1,
]


@pytest.mark.parametrize("u", LOW_ORDER_U)
def test_low_order_points_give_zero(u):
    """RFC 7748 section 6.1: a clamped scalar (a multiple of 8) sends every
    small-order point to the all-zero output instead of failing."""
    scalar = bytes.fromhex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
    assert x25519(scalar, u.to_bytes(32, "little")) == bytes(32)


@pytest.mark.parametrize("length", [0, 31, 33])
def test_wrong_length_inputs_rejected(length):
    with pytest.raises(ValueError):
        x25519(bytes(32), bytes(length))
    with pytest.raises(ValueError):
        x25519(bytes(length), X25519_BASEPOINT)
