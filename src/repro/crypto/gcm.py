"""AES-GCM authenticated encryption (NIST SP 800-38D), from scratch.

GHASH multiplies in GF(2^128) with ordinary big-int multiplication:
each polynomial coefficient sits in its own 8-bit slot, so the slots
of a product count the ones they would XOR and never carry into each
other.  There is no per-key table; setting up a key spreads the hash
subkey once.
"""

from __future__ import annotations

import hmac
from typing import Optional, Tuple

from repro.crypto.aes import AES

__all__ = ["AesGcm", "GcmAuthenticationError", "xor_bytes"]


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings via single big-int ops."""
    n = len(a)
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(n, "big")


class GcmAuthenticationError(Exception):
    """Raised when a GCM tag fails verification."""


# The GCM reduction polynomial, bit-reflected:  x^128 + x^7 + x^2 + x + 1.
_R = 0xE1000000000000000000000000000000


def _gcm_mult(x: int, y: int) -> int:
    """Carry-less multiply of two 128-bit elements in the GCM field.

    Bit-serial reference (SP 800-38D algorithm 1); :class:`_Ghash` is
    tested against it.
    """
    z = 0
    v = y
    for i in range(127, -1, -1):
        if (x >> i) & 1:
            z ^= v
        if v & 1:
            v = (v >> 1) ^ _R
        else:
            v >>= 1
    return z


# Spread form: coefficient i of a field element in byte slot i of an
# int.  A slot of a 128x128 product sums at most 128 ones, so 8 bits
# are enough, and its parity is the carry-less product's coefficient.
_ASCII_TO_BIT = bytes(value & 1 for value in range(256))
_SLOTS_128 = int.from_bytes(b"\x01" * 128, "little")
_SLOTS_255 = int.from_bytes(b"\x01" * 255, "little")
_LOW_1024 = (1 << 1024) - 1
_ASCII_ZEROS = int.from_bytes(b"0" * 128, "little")
# x^128 = x^7 + x^2 + x + 1 modulo the field polynomial.
_FOLD = 1 | 1 << 8 | 1 << 16 | 1 << 56


def _spread(data: bytes) -> bytes:
    """One 0/1 byte per bit of ``data``, most significant bit first.

    GHASH's reflected bit order makes a block's first bit the
    coefficient of x^0, so reading 128 of these bytes little-endian
    puts coefficient i in slot i.  (Binary formatting is exempt from
    the int/str digit limit.)
    """
    bits = format(int.from_bytes(data, "big"), "0%db" % (8 * len(data)))
    return bits.encode().translate(_ASCII_TO_BIT)


class _Ghash:
    """Incremental GHASH over the hash subkey ``h``."""

    def __init__(self, h: bytes):
        self._h = int.from_bytes(_spread(h), "little")
        self._state = 0

    def update(self, data: bytes) -> None:
        if not data:
            return
        bits = _spread(data + bytes(-len(data) % 16))
        h = self._h
        state = self._state
        frm = int.from_bytes
        for start in range(0, len(bits), 128):
            z = ((state ^ frm(bits[start : start + 128], "little")) * h) & _SLOTS_255
            # Fold degrees 128..254 down twice (254 -> 133 -> 12); slots
            # stay below 1 + 4 + 16, then keep each slot's parity.
            z = (z & _LOW_1024) + (z >> 1024) * _FOLD
            z = (z & _LOW_1024) + (z >> 1024) * _FOLD
            state = z & _SLOTS_128
        self._state = state

    def digest(self) -> bytes:
        bits = (self._state | _ASCII_ZEROS).to_bytes(128, "little")
        return int(bits, 2).to_bytes(16, "big")

    def reset(self) -> None:
        self._state = 0


class AesGcm:
    """AES-GCM with a 128 or 256 bit key and 12-byte nonces.

    The tag length is fixed at 16 bytes as required by TLS 1.3 and QUIC.
    """

    tag_length = 16

    def __init__(self, key: bytes):
        self._aes = AES(key)
        self._ghash = _Ghash(self._aes.encrypt_block(bytes(16)))

    def _keystream(self, nonce: bytes, length: int) -> Tuple[bytes, bytes]:
        """The tag mask (counter 1) and ``length`` bytes of CTR keystream
        (counters 2...), all encrypted in a single batched ECB call."""
        counter_blocks = b"".join(
            nonce + counter.to_bytes(4, "big")
            for counter in range(1, 2 + (length + 15) // 16)
        )
        stream = self._aes.encrypt_blocks(counter_blocks)
        return stream[:16], stream[16 : 16 + length]

    def _tag(self, mask: bytes, aad: bytes, ciphertext: bytes) -> bytes:
        ghash = self._ghash
        ghash.reset()
        ghash.update(aad)
        ghash.update(ciphertext)
        ghash.update((len(aad) * 8 << 64 | len(ciphertext) * 8).to_bytes(16, "big"))
        return xor_bytes(ghash.digest(), mask)

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || 16-byte tag."""
        if len(nonce) != 12:
            raise ValueError("GCM nonce must be 12 bytes")
        mask, keystream = self._keystream(nonce, len(plaintext))
        ciphertext = xor_bytes(plaintext, keystream)
        return ciphertext + self._tag(mask, aad, ciphertext)

    def decrypt(
        self, nonce: bytes, data: bytes, aad: bytes = b""
    ) -> Optional[bytes]:
        """Verify and decrypt ciphertext || tag; raises on tag mismatch."""
        if len(nonce) != 12:
            raise ValueError("GCM nonce must be 12 bytes")
        if len(data) < self.tag_length:
            raise GcmAuthenticationError("ciphertext shorter than tag")
        ciphertext, tag = data[: -self.tag_length], data[-self.tag_length :]
        mask, keystream = self._keystream(nonce, len(ciphertext))
        if not hmac.compare_digest(tag, self._tag(mask, aad, ciphertext)):
            raise GcmAuthenticationError("GCM tag mismatch")
        return xor_bytes(ciphertext, keystream)
