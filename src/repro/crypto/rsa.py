"""Minimal RSA with PKCS#1 v1.5 signatures, for the simulated PKI.

The simulated certificate authority (:mod:`repro.tls.certificates`)
signs leaf certificates with RSA.  Key sizes default to 1024 bits —
small enough that pure-Python key generation stays fast at
campaign scale, while exercising exactly the sign/verify code paths a
real scanner validates.  Sizes are configurable for tests.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, Tuple

from repro.crypto.primes import generate_prime
from repro.crypto.provider_keys import PROVIDER_KEY_PRIMES
from repro.crypto.rand import DeterministicRandom

__all__ = [
    "RsaPublicKey",
    "RsaPrivateKey",
    "generate_rsa_key",
    "derived_rsa_key",
    "SignatureError",
]

# DigestInfo prefix for SHA-256 (RFC 8017 §9.2 note 1).
_SHA256_DIGEST_INFO = bytes.fromhex("3031300d060960864801650304020105000420")


class SignatureError(Exception):
    """Raised when an RSA signature fails verification."""


@dataclass(frozen=True)
class RsaPublicKey:
    n: int
    e: int

    @property
    def size_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    def verify(self, message: bytes, signature: bytes) -> None:
        """Verify a PKCS#1 v1.5 SHA-256 signature; raise on failure."""
        if len(signature) != self.size_bytes:
            raise SignatureError("signature length mismatch")
        s = int.from_bytes(signature, "big")
        if s >= self.n:
            raise SignatureError("signature out of range")
        em = pow(s, self.e, self.n).to_bytes(self.size_bytes, "big")
        expected = _pkcs1_v15_encode(message, self.size_bytes)
        if em != expected:
            raise SignatureError("signature mismatch")


@dataclass(frozen=True)
class RsaPrivateKey:
    n: int
    e: int
    d: int
    # Prime factors, when known (freshly generated keys carry them;
    # keys reconstructed from (n, e, d) alone may not).  They enable
    # the ~4x faster CRT signing path below; signatures are identical.
    p: Optional[int] = None
    q: Optional[int] = None

    @property
    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(self.n, self.e)

    @property
    def size_bytes(self) -> int:
        return (self.n.bit_length() + 7) // 8

    @cached_property
    def _crt(self) -> Optional[Tuple[int, int, int, int, int]]:
        """(p, q, d mod p-1, d mod q-1, q^-1 mod p) or None."""
        if self.p is None or self.q is None:
            return None
        return (
            self.p,
            self.q,
            self.d % (self.p - 1),
            self.d % (self.q - 1),
            pow(self.q, -1, self.p),
        )

    def sign(self, message: bytes) -> bytes:
        em = _pkcs1_v15_encode(message, self.size_bytes)
        m = int.from_bytes(em, "big")
        crt = self._crt
        if crt is None:
            s = pow(m, self.d, self.n)
        else:
            # Chinese Remainder Theorem (RFC 8017 §5.1.2): two
            # half-size exponentiations instead of one full-size one.
            p, q, dp, dq, qinv = crt
            m1 = pow(m % p, dp, p)
            m2 = pow(m % q, dq, q)
            s = m2 + q * ((qinv * (m1 - m2)) % p)
        return s.to_bytes(self.size_bytes, "big")


def _pkcs1_v15_encode(message: bytes, em_len: int) -> bytes:
    digest = hashlib.sha256(message).digest()
    t = _SHA256_DIGEST_INFO + digest
    if em_len < len(t) + 11:
        raise ValueError("RSA modulus too small for PKCS#1 v1.5 SHA-256")
    padding = b"\xff" * (em_len - len(t) - 3)
    return b"\x00\x01" + padding + b"\x00" + t


def _key_from_primes(p: int, q: int, e: int = 65537) -> RsaPrivateKey:
    """The key with factors ``p`` and ``q``; ValueError if ``e`` divides phi."""
    return RsaPrivateKey(n=p * q, e=e, d=pow(e, -1, (p - 1) * (q - 1)), p=p, q=q)


def generate_rsa_key(
    bits: int = 1024, rng: Optional[random.Random] = None, e: int = 65537
) -> RsaPrivateKey:
    """Generate an RSA key pair with an exactly ``bits``-bit modulus."""
    rng = rng or random.Random()
    half = bits // 2
    while True:
        # Both primes carry their top two bits, so p * q is exactly
        # ``bits`` long and no pair is discarded for its size.
        p = generate_prime(half, rng)
        q = generate_prime(bits - half, rng)
        if p == q:
            continue
        try:
            return _key_from_primes(p, q, e)
        except ValueError:
            continue


@lru_cache(maxsize=256)
def derived_rsa_key(bits: int, label: str) -> RsaPrivateKey:
    """The ``bits``-bit key that is a pure function of its seed label.

    Defined as ``generate_rsa_key(bits, DeterministicRandom(label))``.
    The provider keys every world shares (``key-<group>``,
    ``selfsigned-<group>``) are answered from the fixture table in
    :mod:`repro.crypto.provider_keys`, which a test pins to that
    definition; every other label (``ca-<seed>``, ``leaf:<subject>``,
    interop and test labels) is generated.  A cold world therefore
    generates one key, its CA's, and the memo saves later worlds of the
    same seed that one key; forked workers inherit it.  Keys are
    immutable, so sharing one is safe.
    """
    primes = PROVIDER_KEY_PRIMES.get((bits, label))
    if primes is None:
        return generate_rsa_key(bits, DeterministicRandom(label))
    return _key_from_primes(*primes)
