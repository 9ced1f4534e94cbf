"""AES-GCM tests: NIST vectors, tamper detection, properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.gcm import AesGcm, GcmAuthenticationError, _Ghash, _gcm_mult
from repro.crypto.rand import DeterministicRandom

KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
IV = bytes.fromhex("cafebabefacedbaddecaf888")
PLAINTEXT = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255"
)
AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")


def test_nist_case_3_no_aad():
    out = AesGcm(KEY).encrypt(IV, PLAINTEXT)
    assert out[:-16].hex() == (
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
        "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
    )
    assert out[-16:].hex() == "4d5c2af327cd64a62cf35abd2ba6fab4"


def test_nist_case_4_with_aad():
    out = AesGcm(KEY).encrypt(IV, PLAINTEXT[:60], AAD)
    assert out[-16:].hex() == "5bc94fbc3221a5db94fae95ae7121a47"
    assert AesGcm(KEY).decrypt(IV, out, AAD) == PLAINTEXT[:60]


def test_empty_plaintext_tag_only():
    out = AesGcm(bytes(16)).encrypt(bytes(12), b"")
    assert len(out) == 16
    # NIST test case 1: empty plaintext, zero key.
    assert out.hex() == "58e2fccefa7e3061367f1d57a4e7455a"


def test_tamper_detection_ciphertext():
    out = bytearray(AesGcm(KEY).encrypt(IV, PLAINTEXT, AAD))
    out[0] ^= 1
    with pytest.raises(GcmAuthenticationError):
        AesGcm(KEY).decrypt(IV, bytes(out), AAD)


def test_tamper_detection_aad():
    out = AesGcm(KEY).encrypt(IV, PLAINTEXT, AAD)
    with pytest.raises(GcmAuthenticationError):
        AesGcm(KEY).decrypt(IV, out, AAD + b"x")


def test_short_ciphertext_rejected():
    with pytest.raises(GcmAuthenticationError):
        AesGcm(KEY).decrypt(IV, b"tooshort")


def test_bad_nonce_length():
    with pytest.raises(ValueError):
        AesGcm(KEY).encrypt(b"short", b"data")


@settings(max_examples=25, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    nonce=st.binary(min_size=12, max_size=12),
    plaintext=st.binary(max_size=200),
    aad=st.binary(max_size=64),
)
def test_roundtrip_property(key, nonce, plaintext, aad):
    gcm = AesGcm(key)
    assert gcm.decrypt(nonce, gcm.encrypt(nonce, plaintext, aad), aad) == plaintext


# --- GHASH (big-int multiply in spread form) against the bit-serial field --


def ghash_reference(h: bytes, data: bytes) -> bytes:
    """Horner's rule over the zero-padded blocks with ``_gcm_mult``."""
    subkey = int.from_bytes(h, "big")
    state = 0
    for start in range(0, len(data), 16):
        block = data[start : start + 16].ljust(16, b"\x00")
        state = _gcm_mult(state ^ int.from_bytes(block, "big"), subkey)
    return state.to_bytes(16, "big")


def ghash(h: bytes, *chunks: bytes) -> bytes:
    state = _Ghash(h)
    for chunk in chunks:
        state.update(chunk)
    return state.digest()


@settings(max_examples=30, deadline=None)
@given(h=st.binary(min_size=16, max_size=16), length=st.integers(0, 2000))
def test_ghash_equals_bit_serial_horner(h, length):
    data = DeterministicRandom(h).token(length)
    assert ghash(h, data) == ghash_reference(h, data)


@settings(max_examples=30, deadline=None)
@given(
    h=st.binary(min_size=16, max_size=16),
    head_blocks=st.integers(0, 40),
    length=st.integers(0, 600),
)
def test_ghash_split_updates(h, head_blocks, length):
    data = DeterministicRandom(h).token(length)
    cut = min(16 * head_blocks, length - length % 16)
    whole = ghash_reference(h, data)
    assert ghash(h, data[:cut], data[cut:]) == whole
    assert ghash(h, b"", data[:cut], b"", data[cut:], b"") == whole


ONE_REFLECTED = b"\x80" + bytes(15)  # the field's 1: bit 0 is x^0


@pytest.mark.parametrize(
    "h", [bytes(16), ONE_REFLECTED, b"\xff" * 16, bytes(15) + b"\x01"], ids=repr
)
@pytest.mark.parametrize("data", [b"", b"\xff" * 16, b"\xff" * 160, b"\xff" * 33])
def test_ghash_pinned_corners(h, data):
    assert ghash(h, data) == ghash_reference(h, data)
    if h == bytes(16):
        assert ghash(h, data) == bytes(16)
    if h == ONE_REFLECTED and len(data) == 16:
        assert ghash(h, data) == data


def test_ghash_reset_and_empty_digest():
    state = _Ghash(KEY)
    assert state.digest() == bytes(16)
    state.update(PLAINTEXT)
    state.reset()
    assert state.digest() == bytes(16)


# --- McGrew-Viega test cases 1-4 (AES-128) and 13-16 (AES-256) -------------

KEY_256 = KEY + KEY
CIPHERTEXT_128 = (
    "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
    "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985"
)
CIPHERTEXT_256 = (
    "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
    "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad"
)


@pytest.mark.parametrize(
    "key,iv,plaintext,aad,ciphertext,tag",
    [
        (bytes(16), bytes(12), b"", b"", "", "58e2fccefa7e3061367f1d57a4e7455a"),
        (
            bytes(16), bytes(12), bytes(16), b"",
            "0388dace60b6a392f328c2b971b2fe78", "ab6e47d42cec13bdf53a67b21257bddf",
        ),
        (KEY, IV, PLAINTEXT, b"", CIPHERTEXT_128, "4d5c2af327cd64a62cf35abd2ba6fab4"),
        (
            KEY, IV, PLAINTEXT[:60], AAD,
            CIPHERTEXT_128[:120], "5bc94fbc3221a5db94fae95ae7121a47",
        ),
        (bytes(32), bytes(12), b"", b"", "", "530f8afbc74536b9a963b4f1c4cb738b"),
        (
            bytes(32), bytes(12), bytes(16), b"",
            "cea7403d4d606b6e074ec5d3baf39d18", "d0d1c8a799996bf0265b98b5d48ab919",
        ),
        (KEY_256, IV, PLAINTEXT, b"", CIPHERTEXT_256, "b094dac5d93471bdec1a502270e3cc6c"),
        (
            KEY_256, IV, PLAINTEXT[:60], AAD,
            CIPHERTEXT_256[:120], "76fc6ece0f4e1768cddf8853bb2d551b",
        ),
    ],
    ids=["tc1", "tc2", "tc3", "tc4", "tc13", "tc14", "tc15", "tc16"],
)
def test_mcgrew_viega_vectors(key, iv, plaintext, aad, ciphertext, tag):
    sealed = AesGcm(key).encrypt(iv, plaintext, aad)
    assert sealed.hex() == ciphertext + tag
    assert AesGcm(key).decrypt(iv, sealed, aad) == plaintext


def test_tls_record_sized_roundtrip_and_tamper():
    gcm = AesGcm(KEY)
    plaintext = DeterministicRandom("gcm-record").token(16384)
    sealed = gcm.encrypt(IV, plaintext, AAD)
    assert len(sealed) == 16384 + 16
    assert gcm.decrypt(IV, sealed, AAD) == plaintext
    last_ciphertext_byte = bytearray(sealed)
    last_ciphertext_byte[-17] ^= 0x80
    last_tag_byte = bytearray(sealed)
    last_tag_byte[-1] ^= 0x01
    last_aad_byte = AAD[:-1] + bytes([AAD[-1] ^ 0x01])
    for data, aad in (
        (bytes(last_ciphertext_byte), AAD),
        (bytes(last_tag_byte), AAD),
        (sealed, last_aad_byte),
    ):
        with pytest.raises(GcmAuthenticationError):
            gcm.decrypt(IV, data, aad)
