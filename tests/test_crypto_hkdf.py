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
