"""HKDF (RFC 5869) and the TLS 1.3 HKDF-Expand-Label construction.

These functions sit under both the TLS 1.3 key schedule (RFC 8446 §7.1)
and QUIC packet protection key derivation (RFC 9001 §5.1).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache, partial

__all__ = ["hkdf_extract", "hkdf_expand", "hkdf_expand_label", "hmac_digest"]


# Hash block sizes for the HMAC key schedule (RFC 2104) and digest
# sizes for HKDF-Expand's length bound.
_BLOCK_SIZES = {"sha256": 64, "sha224": 64, "sha1": 64, "md5": 64, "sha384": 128, "sha512": 128}
_DIGEST_SIZES = {"sha256": 32, "sha224": 28, "sha1": 20, "md5": 16, "sha384": 48, "sha512": 64}

# The HMAC hashes by name: (constructor, block size).  The constructors
# skip ``hashlib.new``'s Python-level dispatch; a name outside the table
# still goes through it (and raises there), with the 64-byte block.
_HMAC_HASHES = {
    name: (getattr(hashlib, name), block) for name, block in _BLOCK_SIZES.items()
}

# XOR-with-constant as 256-byte translation tables (bytes.translate runs
# the pad derivation at C speed).
_IPAD_TRANS = bytes(b ^ 0x36 for b in range(256))
_OPAD_TRANS = bytes(b ^ 0x5C for b in range(256))


# The three memos below hold per-handshake values (secrets, AEAD keys,
# connection IDs): their working set is the handshake in flight, so 256
# entries keep all but a handful of hits (a W20k week: 26,185 of 26,200)
# and a week's handshakes do not pile up.
_HANDSHAKE_MEMO = 256


@lru_cache(maxsize=_HANDSHAKE_MEMO)
def _hmac_contexts(key: bytes, hash_name: str):
    """Pre-seeded (inner, outer) digest contexts for an HMAC key.

    Cached so the two-block key schedule runs once per key; callers
    copy() the contexts, which is much cheaper than ``hmac.new`` and
    also skips the hmac module's per-call wrapper objects.
    """
    new, block = _HMAC_HASHES.get(hash_name) or (partial(hashlib.new, hash_name), 64)
    if len(key) > block:
        key = new(key).digest()
    key = key.ljust(block, b"\x00")
    return new(key.translate(_IPAD_TRANS)), new(key.translate(_OPAD_TRANS))


def hmac_digest(key: bytes, message: bytes, hash_name: str = "sha256") -> bytes:
    """HMAC with per-key context caching (RFC 2104 construction).

    The handshake hot path computes thousands of HMACs over a small set
    of keys (key-schedule secrets, AEAD keys); copying cached keyed
    contexts skips the two hash-block key setup every call would pay.
    """
    inner, outer = _hmac_contexts(key, hash_name)
    ih = inner.copy()
    ih.update(message)
    oh = outer.copy()
    oh.update(ih.digest())
    return oh.digest()


@lru_cache(maxsize=_HANDSHAKE_MEMO)
def hkdf_extract(salt: bytes, ikm: bytes, hash_name: str = "sha256") -> bytes:
    """HKDF-Extract: PRK = HMAC-Hash(salt, IKM).

    Memoised: QUIC Initial secrets extract the per-connection DCID
    against a fixed version salt, and the TLS key schedule re-extracts
    identical (salt, IKM) pairs on both sides of every simulated
    handshake.
    """
    if not salt:
        salt = bytes(hashlib.new(hash_name).digest_size)
    return hmac_digest(salt, ikm, hash_name)


def hkdf_expand(
    prk: bytes, info: bytes, length: int, hash_name: str = "sha256"
) -> bytes:
    """HKDF-Expand: derive ``length`` bytes of output keying material."""
    # Names outside the table still go through hashlib (and raise there).
    hash_len = _DIGEST_SIZES.get(hash_name) or hashlib.new(hash_name).digest_size
    if length > 255 * hash_len:
        raise ValueError("HKDF-Expand output too long")
    blocks = []
    previous = b""
    counter = 1
    produced = 0
    while produced < length:
        previous = hmac_digest(prk, previous + info + bytes([counter]), hash_name)
        blocks.append(previous)
        produced += len(previous)
        counter += 1
    return b"".join(blocks)[:length]


@lru_cache(maxsize=_HANDSHAKE_MEMO)
def hkdf_expand_label(
    secret: bytes,
    label: bytes,
    context: bytes,
    length: int,
    hash_name: str = "sha256",
) -> bytes:
    """TLS 1.3 HKDF-Expand-Label (RFC 8446 §7.1).

    The label is prefixed with ``"tls13 "`` per the RFC; QUIC passes
    labels such as ``b"quic key"`` through this same construction
    (RFC 9001 §5.1).

    Every TLS 1.3 and QUIC label asks for at most HashLen bytes, which
    are the first HKDF-Expand block, ``T(1) = HMAC(secret, HkdfLabel ||
    0x01)``: one HMAC, truncated.  A longer output takes the RFC 5869
    loop.

    Memoised because every packet-protection key ladder expands the
    same handful of (secret, label) pairs on both endpoints.
    """
    # struct HkdfLabel: uint16 length, opaque label<7..255> ("tls13 " +
    # label), opaque context<0..255>; then HKDF-Expand's block counter.
    hkdf_label = b"%c%c%ctls13 %b%c%b" % (
        length >> 8, length & 0xFF, 6 + len(label), label, len(context), context
    )
    okm = hmac_digest(secret, hkdf_label + b"\x01", hash_name)
    if length > len(okm):
        return hkdf_expand(secret, hkdf_label, length, hash_name)
    return okm[:length]
