"""AES block cipher tests (FIPS 197 vectors + properties)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aes import AES
from repro.crypto.rand import DeterministicRandom

FIPS_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")


@pytest.mark.parametrize(
    "key_hex,expected",
    [
        ("000102030405060708090a0b0c0d0e0f", "69c4e0d86a7b0430d8cdb78070b4c55a"),
        ("000102030405060708090a0b0c0d0e0f1011121314151617", "dda97ca4864cdfe06eaf70a0ec0d7191"),
        (
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
            "8ea2b7ca516745bfeafc49904b496089",
        ),
    ],
)
def test_fips197_vectors(key_hex, expected):
    cipher = AES(bytes.fromhex(key_hex))
    assert cipher.encrypt_block(FIPS_PLAINTEXT).hex() == expected


def test_zero_key_zero_block():
    assert AES(bytes(16)).encrypt_block(bytes(16)).hex() == "66e94bd4ef8a2c3b884cfa59ca342b2e"


def test_invalid_key_length_rejected():
    with pytest.raises(ValueError):
        AES(b"short")


def test_invalid_block_length_rejected():
    cipher = AES(bytes(16))
    with pytest.raises(ValueError):
        cipher.encrypt_block(b"not-a-block")


@given(key=st.binary(min_size=16, max_size=16))
def test_permutation_property(key):
    """Distinct plaintexts encrypt to distinct ciphertexts."""
    cipher = AES(key)
    a = cipher.encrypt_block(bytes(16))
    b = cipher.encrypt_block(bytes(15) + b"\x01")
    assert a != b


# --- encrypt_blocks (row-plane batch) against the single-block cipher ------

# NIST SP 800-38A appendix F.1: the four ECB blocks under each key size.
SP800_38A_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)


@pytest.mark.parametrize(
    "key_hex,expected",
    [
        (
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3ad77bb40d7a3660a89ecaf32466ef97"
            "f5d3d58503b9699de785895a96fdbaaf"
            "43b1cd7f598ece23881b00e3ed030688"
            "7b0c785e27e8ad3f8223207104725dd4",
        ),
        (
            "8e73b0f7da0e6452c810f32b809079e562f8ead2522c6b7b",
            "bd334f1d6e45f25ff712a214571fa5cc"
            "974104846d0ad3ad7734ecb3ecee4eef"
            "ef7afd2270e2e60adce0ba2face6444e"
            "9a4b41ba738d6c72fb16691603c18e0e",
        ),
        (
            "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4",
            "f3eed1bdb5d2a03c064b5a7e3db181f8"
            "591ccb10d410ed26dc5ba74a31362870"
            "b6ed21b99ca6f4f9f153e7b1beafed1d"
            "23304b7a39f9f3ff067d8d8f9e24ecc7",
        ),
    ],
)
def test_sp800_38a_ecb_vectors_in_one_batch(key_hex, expected):
    cipher = AES(bytes.fromhex(key_hex))
    assert cipher.encrypt_blocks(SP800_38A_PLAINTEXT).hex() == expected


@settings(max_examples=40, deadline=None)
@given(
    key=st.sampled_from([16, 24, 32]).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
    blocks=st.integers(min_value=0, max_value=300),
    seed=st.binary(max_size=8),
)
def test_batch_equals_block_by_block(key, blocks, seed):
    cipher = AES(key)
    data = DeterministicRandom(seed.hex()).token(16 * blocks)
    expected = b"".join(
        cipher.encrypt_block(data[i : i + 16]) for i in range(0, len(data), 16)
    )
    assert cipher.encrypt_blocks(data) == expected


def test_batch_of_nothing_is_empty():
    assert AES(bytes(16)).encrypt_blocks(b"") == b""


@pytest.mark.parametrize("length", [1, 15, 17, 1199])
def test_batch_rejects_partial_blocks(length):
    with pytest.raises(ValueError):
        AES(bytes(16)).encrypt_blocks(bytes(length))
