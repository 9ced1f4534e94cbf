"""Pluggable AEAD interface for QUIC/TLS record protection.

Two providers exist:

- :class:`AeadAes128Gcm` — real AES-128-GCM, validated against the
  RFC 9001 Appendix A test vectors.  Always used for QUIC Initial
  packet protection (the long-header packets the paper's ZMap module
  and QScanner emit on the wire are bit-exact RFC 9001 packets).
- :class:`AeadSim` — a fast simulation AEAD (SHAKE-256 keystream with
  an HMAC-SHA256 tag truncated to 16 bytes).  Negotiated only via
  the repository's private cipher-suite code point and only between our
  own client and server stacks, this keeps campaign-scale scans (tens
  of thousands of full handshakes) tractable in pure Python.  The
  substitution is recorded in DESIGN.md and an ablation benchmark
  quantifies the handshake-rate difference.

Both providers expose the same interface so the QUIC/TLS engines are
agnostic to which is in use.
"""

from __future__ import annotations

import hashlib
import hmac
from functools import lru_cache

from repro.crypto.gcm import AesGcm, GcmAuthenticationError
from repro.crypto.hkdf import hmac_digest

__all__ = [
    "AeadError",
    "AeadAes128Gcm",
    "AeadSim",
    "aead_for_suite",
    "header_mask_aes",
    "header_mask_sim",
]


class AeadError(Exception):
    """Raised when AEAD open (decryption) fails authentication."""


class AeadAes128Gcm:
    """AES-GCM AEAD (16-byte keys for AES-128, 32 for AES-256)."""

    tag_length = 16

    def __init__(self, key: bytes):
        self._gcm = AesGcm(key)

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
        return self._gcm.encrypt(nonce, plaintext, aad)

    def open(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        try:
            plaintext = self._gcm.decrypt(nonce, ciphertext, aad)
        except GcmAuthenticationError as exc:
            raise AeadError(str(exc)) from exc
        assert plaintext is not None
        return plaintext


class AeadSim:
    """Fast simulated AEAD: SHAKE-256 keystream + truncated HMAC tag.

    Not a real cipher — used only between this repository's own
    endpoints to model record protection at campaign scale.  It
    preserves the properties the measurement pipeline depends on:
    ciphertext is key-dependent, unauthentic data is rejected, and
    lengths match AES-GCM (16-byte expansion).  The keystream is one
    SHAKE-256 XOF call over (key || nonce) — a single C-level squeeze
    instead of a Python loop of per-block SHA-256 calls, which
    dominated record protection at campaign scale — XORed in as one
    big integer; the tag is HMAC-SHA256(key, nonce || aad ||
    ciphertext) truncated to 16 bytes.
    """

    tag_length = 16

    def __init__(self, key: bytes):
        self._key = key

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes) -> bytes:
        key = self._key
        length = len(plaintext)
        keystream = hashlib.shake_256(key + nonce).digest(length)
        ciphertext = (
            int.from_bytes(plaintext, "big") ^ int.from_bytes(keystream, "big")
        ).to_bytes(length, "big")
        return ciphertext + hmac_digest(key, nonce + aad + ciphertext)[:16]

    def open(self, nonce: bytes, data: bytes, aad: bytes) -> bytes:
        key = self._key
        length = len(data) - 16
        if length < 0:
            raise AeadError("ciphertext shorter than tag")
        ciphertext = data[:length]
        if not hmac.compare_digest(
            data[length:], hmac_digest(key, nonce + aad + ciphertext)[:16]
        ):
            raise AeadError("simulated AEAD tag mismatch")
        keystream = hashlib.shake_256(key + nonce).digest(length)
        return (
            int.from_bytes(ciphertext, "big") ^ int.from_bytes(keystream, "big")
        ).to_bytes(length, "big")


@lru_cache(maxsize=64)
def _hp_cipher(hp_key: bytes):
    """One AES instance per header-protection key.

    Header protection runs once per packet in both directions, always
    with the same few keys per connection; constructing a fresh cipher
    per mask dominated the hot path.  The keys of the connections in
    flight are the working set: 64 entries keep every hit of a
    real-crypto week (32 lose a few).
    """
    from repro.crypto.aes import AES

    return AES(hp_key)


@lru_cache(maxsize=4096)
def _hp_mask_aes(hp_key: bytes, sample16: bytes) -> bytes:
    return _hp_cipher(hp_key).encrypt_block(sample16)[:5]


def header_mask_aes(hp_key: bytes, sample: bytes) -> bytes:
    """QUIC header-protection mask via AES-ECB (RFC 9001 §5.4.3).

    Masks are cached per (key, sample): in the simulated network the
    receiving endpoint unprotects exactly the bytes the sender just
    protected, so every mask is computed once and looked up once.
    """
    return _hp_mask_aes(hp_key, sample[:16])


def header_mask_sim(hp_key: bytes, sample: bytes) -> bytes:
    """Header-protection mask for the simulated AEAD (keyed hash)."""
    return hashlib.sha256(hp_key + sample[:16]).digest()[:5]


def header_mask_chacha(hp_key: bytes, sample: bytes) -> bytes:
    """QUIC header-protection mask via ChaCha20 (RFC 9001 §5.4.4).

    The first 4 sample bytes are the block counter (little endian), the
    remaining 12 the nonce; the mask is the start of the keystream.
    """
    from repro.crypto.chacha import chacha20_block

    counter = int.from_bytes(sample[0:4], "little")
    nonce = sample[4:16]
    return chacha20_block(hp_key, counter, nonce)[:5]


def aead_for_suite(suite_name: str, key: bytes):
    """Instantiate the AEAD matching a cipher-suite name."""
    if suite_name in ("TLS_AES_128_GCM_SHA256", "TLS_AES_256_GCM_SHA384"):
        return AeadAes128Gcm(key)
    if suite_name == "TLS_CHACHA20_POLY1305_SHA256":
        from repro.crypto.chacha import ChaCha20Poly1305

        return ChaCha20Poly1305(key)
    if suite_name == "TLS_SIM_SHA256":
        return AeadSim(key)
    raise ValueError(f"unknown cipher suite: {suite_name}")
