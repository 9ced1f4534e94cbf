"""HKDF tests against RFC 5869 vectors plus HKDF-Expand-Label."""

import pytest

from repro.crypto.hkdf import hkdf_expand, hkdf_expand_label, hkdf_extract


def test_rfc5869_case_1():
    ikm = bytes.fromhex("0b" * 22)
    salt = bytes.fromhex("000102030405060708090a0b0c")
    info = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9")
    prk = hkdf_extract(salt, ikm)
    assert prk.hex() == "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
    okm = hkdf_expand(prk, info, 42)
    assert okm.hex() == (
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
    )


def test_rfc5869_case_2_long_inputs():
    ikm = bytes(range(0x00, 0x50))
    salt = bytes(range(0x60, 0xB0))
    info = bytes(range(0xB0, 0x100))
    prk = hkdf_extract(salt, ikm)
    okm = hkdf_expand(prk, info, 82)
    assert okm.hex() == (
        "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
        "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
        "cc30c58179ec3e87c14c01d5c1f3434f1d87"
    )


def test_rfc5869_case_3_empty_salt_info():
    ikm = bytes.fromhex("0b" * 22)
    prk = hkdf_extract(b"", ikm)
    assert prk.hex() == "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04"
    okm = hkdf_expand(prk, b"", 42)
    assert okm.hex() == (
        "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
    )


def test_expand_length_limit():
    with pytest.raises(ValueError):
        hkdf_expand(b"\x00" * 32, b"", 256 * 32)


def test_digest_size_table_matches_hashlib_and_unknown_names_still_raise():
    import hashlib

    from repro.crypto.hkdf import _DIGEST_SIZES

    for name, size in _DIGEST_SIZES.items():
        assert hashlib.new(name).digest_size == size
    # a hash outside the table takes the hashlib path: same bound, same error
    assert len(hkdf_expand(b"\x00" * 32, b"", 255 * 28, "sha3_224")) == 255 * 28
    with pytest.raises(ValueError):
        hkdf_expand(b"\x00" * 32, b"", 255 * 28 + 1, "sha3_224")
    with pytest.raises(ValueError):
        hkdf_expand(b"\x00" * 32, b"", 16, "no-such-hash")


def test_expand_label_quic_initial_keys():
    """RFC 9001 Appendix A.1 derivation chain."""
    salt = bytes.fromhex("38762cf7f55934b34d179ae6a4c80cadccbb7f0a")
    dcid = bytes.fromhex("8394c8f03e515708")
    initial_secret = hkdf_extract(salt, dcid)
    client = hkdf_expand_label(initial_secret, b"client in", b"", 32)
    assert client.hex() == "c00cf151ca5be075ed0ebfb5c80323c42d6b7db67881289af4008f1f6c357aea"
    server = hkdf_expand_label(initial_secret, b"server in", b"", 32)
    assert server.hex() == "3c199828fd139efd216c155ad844cc81fb82fa8d7446fa7d78be803acdda951b"
    assert hkdf_expand_label(client, b"quic key", b"", 16).hex() == "1f369613dd76d5467730efcbe3b1a22d"
    assert hkdf_expand_label(client, b"quic iv", b"", 12).hex() == "fa044b2f42a3fd3b46fb255c"
    assert hkdf_expand_label(client, b"quic hp", b"", 16).hex() == "9f50449e04a0e810283a1e9933adedd2"


def test_expand_label_deterministic_and_label_sensitive():
    secret = bytes(32)
    a = hkdf_expand_label(secret, b"label-a", b"", 16)
    b = hkdf_expand_label(secret, b"label-b", b"", 16)
    assert a != b
    assert a == hkdf_expand_label(secret, b"label-a", b"", 16)


def _rfc5869_expand_label(secret, label, context, length, hash_name):
    """HKDF-Expand-Label through the RFC 5869 block loop, its HkdfLabel
    built field by field (RFC 8446 §7.1)."""
    full_label = b"tls13 " + label
    hkdf_label = (
        length.to_bytes(2, "big")
        + bytes([len(full_label)])
        + full_label
        + bytes([len(context)])
        + context
    )
    return hkdf_expand(secret, hkdf_label, length, hash_name)


@pytest.mark.parametrize("hash_name,hash_len", [("sha256", 32), ("sha384", 48)])
def test_one_hmac_expand_label_equals_the_rfc5869_loop(hash_name, hash_len):
    secret = bytes(range(1, hash_len + 1))
    for length in range(1, hash_len + 1):
        for label, context in ((b"quic key", b""), (b"c hs traffic", bytes(hash_len))):
            assert hkdf_expand_label(secret, label, context, length, hash_name) == (
                _rfc5869_expand_label(secret, label, context, length, hash_name)
            )
    # Longer than one block still takes the loop.
    long = hkdf_expand_label(secret, b"long", b"", 3 * hash_len + 1, hash_name)
    assert long == _rfc5869_expand_label(secret, b"long", b"", 3 * hash_len + 1, hash_name)


def test_rfc8448_simple_1rtt_key_schedule():
    """RFC 8448 §3: early, handshake and server handshake traffic secrets."""
    import hashlib

    early = hkdf_extract(bytes(32), bytes(32))
    assert early.hex() == "33ad0a1c607ec03b09e6cd9893680ce210adf300aa1f2660e1b22e10f170f92a"
    derived = hkdf_expand_label(early, b"derived", hashlib.sha256().digest(), 32)
    assert derived.hex() == "6f2615a108c702c5678f54fc9dbab69716c076189c48250cebeac3576c3611ba"
    shared = bytes.fromhex("8bd4054fb55b9d63fdfbacf9f04b9f0d35e6d63f537563efd46272900f89492d")
    handshake = hkdf_extract(derived, shared)
    assert handshake.hex() == "1dc826e93606aa6fdc0aadc12f741b01046aa6b99f691ed221a9f0ca043fbeac"
    transcript = bytes.fromhex("860c06edc07858ee8e78f0e7428c58edd6b43f2ca3e6e95f02ed063cf0e1cad8")
    client = hkdf_expand_label(handshake, b"c hs traffic", transcript, 32)
    assert client.hex() == "b3eddb126e067f35a780b3abf45e2d8f3b1a950738f52e9600746a0e27a55a21"
    server = hkdf_expand_label(handshake, b"s hs traffic", transcript, 32)
    assert server.hex() == "b67b7d690cc16c4e75e54213cb2d37b4e9c912bcded9105d42befd59d391ad38"
    assert hkdf_expand_label(server, b"key", b"", 16).hex() == "3fce516009c21727d0f2e4e86ee403bc"
    assert hkdf_expand_label(server, b"iv", b"", 12).hex() == "5d313eb2671276ee13000b30"
    assert hkdf_expand_label(server, b"finished", b"", 32).hex() == (
        "008d3b66f816ea559f96b537e885c31fc068bf492c652f01f288a1d8cdc19fc8"
    )


@pytest.mark.parametrize("hash_name", ["sha256", "sha384"])
def test_pskless_early_secret_constants_equal_a_fresh_extract(hash_name):
    import hashlib

    from repro.tls.keyschedule import KeySchedule, _hash_constants

    zeros = bytes(hashlib.new(hash_name).digest_size)
    hkdf_extract.cache_clear()
    hkdf_expand_label.cache_clear()
    fresh = hkdf_extract(zeros, zeros, hash_name)
    fresh_derived = _rfc5869_expand_label(
        fresh, b"derived", hashlib.new(hash_name).digest(), len(zeros), hash_name
    )
    _empty, early, derived = _hash_constants(hash_name)
    assert (early, derived) == (fresh, fresh_derived)
    # A PSK-less schedule starts from them; an empty PSK is no PSK.
    for psk in (None, b""):
        schedule = KeySchedule(hash_name, psk=psk)
        assert (schedule._early_secret, schedule._derived_early) == (fresh, fresh_derived)
    resumed = KeySchedule(hash_name, psk=b"\x01" * len(zeros))
    assert resumed._early_secret == hkdf_extract(zeros, b"\x01" * len(zeros), hash_name)
    assert resumed._derived_early is None
