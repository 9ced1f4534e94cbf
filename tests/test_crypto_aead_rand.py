"""AEAD provider interface and deterministic randomness tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aead import (
    AeadAes128Gcm,
    AeadError,
    AeadSim,
    aead_for_suite,
    header_mask_aes,
    header_mask_sim,
)
from repro.crypto.rand import DeterministicRandom, derive_seed


@pytest.mark.parametrize("provider_cls", [AeadAes128Gcm, AeadSim])
def test_seal_open_roundtrip(provider_cls):
    aead = provider_cls(b"k" * 16)
    sealed = aead.seal(b"n" * 12, b"payload", b"aad")
    assert aead.open(b"n" * 12, sealed, b"aad") == b"payload"
    assert len(sealed) == len(b"payload") + 16


@pytest.mark.parametrize("provider_cls", [AeadAes128Gcm, AeadSim])
def test_open_rejects_tampering(provider_cls):
    aead = provider_cls(b"k" * 16)
    sealed = bytearray(aead.seal(b"n" * 12, b"payload", b"aad"))
    sealed[0] ^= 0xFF
    with pytest.raises(AeadError):
        aead.open(b"n" * 12, bytes(sealed), b"aad")


@pytest.mark.parametrize("provider_cls", [AeadAes128Gcm, AeadSim])
def test_open_rejects_wrong_aad(provider_cls):
    aead = provider_cls(b"k" * 16)
    sealed = aead.seal(b"n" * 12, b"payload", b"aad")
    with pytest.raises(AeadError):
        aead.open(b"n" * 12, sealed, b"other")


def test_sim_aead_rejects_short_input():
    with pytest.raises(AeadError):
        AeadSim(b"k" * 16).open(b"n" * 12, b"x", b"")


def test_aead_for_suite_dispatch():
    assert isinstance(aead_for_suite("TLS_AES_128_GCM_SHA256", b"k" * 16), AeadAes128Gcm)
    assert isinstance(aead_for_suite("TLS_SIM_SHA256", b"k" * 16), AeadSim)
    with pytest.raises(ValueError):
        aead_for_suite("TLS_NOPE", b"k" * 16)


def test_header_masks_are_5_bytes_and_key_dependent():
    sample = bytes(range(16))
    for mask_fn in (header_mask_aes, header_mask_sim):
        mask_a = mask_fn(b"a" * 16, sample)
        mask_b = mask_fn(b"b" * 16, sample)
        assert len(mask_a) == 5
        assert mask_a != mask_b


@settings(max_examples=20, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    nonce=st.binary(min_size=12, max_size=12),
    payload=st.binary(max_size=128),
)
def test_sim_aead_roundtrip_property(key, nonce, payload):
    aead = AeadSim(key)
    assert aead.open(nonce, aead.seal(nonce, payload, b""), b"") == payload


# -- DeterministicRandom ------------------------------------------------------


def test_deterministic_random_reproducible():
    a = DeterministicRandom("seed")
    b = DeterministicRandom("seed")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_children_are_independent_and_labelled():
    root = DeterministicRandom("root")
    child_x = root.child("x")
    child_y = root.child("y")
    assert child_x.random() != child_y.random()
    # Same label gives the same stream regardless of parent state.
    again = DeterministicRandom("root").child("x")
    assert DeterministicRandom("root").child("x").random() == again.random()


def test_token_length():
    rng = DeterministicRandom(1)
    assert len(rng.token(8)) == 8
    assert len(rng.token(20)) == 20


def test_derive_seed_domain_separation():
    assert derive_seed("a", "bc") != derive_seed("ab", "c")
    assert derive_seed(1, 23) != derive_seed(12, 3)


def test_tuple_seed():
    assert DeterministicRandom(("x", 1)).random() == DeterministicRandom(("x", 1)).random()


# Golden outputs, recorded before ``derive_seed`` hashed one joined
# buffer: every seed a campaign derives must stay the same.
@pytest.mark.parametrize(
    "parts,seed",
    [
        ((), 16406829232824261652),
        (("",), 16086683699531821019),
        ((b"",), 16086683699531821019),
        ((0,), 12345577252699952557),
        ((-1,), 11000697885157103354),
        ((-(2**70),), 1571430498438517341),
        (("zmap-quic",), 6236687676342431795),
        (("quic-server", "first-byte", 3), 5428030520459624645),
        ((b"\x00\xff", 7, "x"), 8215159466097681125),
        ((2**64 + 5, b"", ""), 10250572166686984274),
        (("ünï",), 14997917646766592203),
        ((123456789, -42, b"\x01" * 40), 4875462671683638337),
    ],
)
def test_derive_seed_golden(parts, seed):
    assert derive_seed(*parts) == seed
