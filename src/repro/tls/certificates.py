"""Certificates and the simulated PKI.

Real X.509/DER parsing is out of scope (and irrelevant to the paper's
analyses, which compare *which* certificate a target returns, not ASN.1
internals), so certificates use a compact deterministic binary format
signed with RSA PKCS#1 v1.5 / SHA-256.  All the behaviour the paper
measures is preserved:

- certificate identity (Table 5 compares the certificate returned via
  QUIC and via TLS-over-TCP by fingerprint),
- SNI-based certificate selection, including wildcard SANs,
- Google's self-signed "missing SNI" error certificate on TCP,
- weekly certificate rolling (Google's ~weekly rotation produces
  mismatches between the QUIC and TCP scans; §5.1).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import List, Optional, Sequence, Tuple

from repro.crypto.rand import DeterministicRandom
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey, SignatureError, derived_rsa_key

__all__ = [
    "Certificate",
    "CertificateAuthority",
    "CertificateError",
    "verify_chain",
    "hostname_matches",
]


class CertificateError(Exception):
    """Raised when a certificate chain fails validation."""


def _encode_str(text: str) -> bytes:
    raw = text.encode()
    return len(raw).to_bytes(2, "big") + raw


def _decode_str(data: bytes, offset: int) -> Tuple[str, int]:
    length = int.from_bytes(data[offset : offset + 2], "big")
    end = offset + 2 + length
    return data[offset + 2 : end].decode(), end


@dataclass(frozen=True)
class Certificate:
    """A leaf or CA certificate in the compact simulation format."""

    subject: str
    issuer: str
    san: Tuple[str, ...]
    serial: int
    not_before: int  # campaign week numbers serve as coarse validity
    not_after: int
    public_key: RsaPublicKey
    is_ca: bool = False
    signature: bytes = b""

    def tbs_bytes(self) -> bytes:
        """The to-be-signed encoding (everything except the signature)."""
        parts = [
            _encode_str(self.subject),
            _encode_str(self.issuer),
            len(self.san).to_bytes(2, "big"),
        ]
        parts.extend(_encode_str(name) for name in self.san)
        parts.append(self.serial.to_bytes(8, "big"))
        parts.append(self.not_before.to_bytes(4, "big"))
        parts.append(self.not_after.to_bytes(4, "big"))
        parts.append(b"\x01" if self.is_ca else b"\x00")
        n_bytes = self.public_key.n.to_bytes(self.public_key.size_bytes, "big")
        parts.append(len(n_bytes).to_bytes(2, "big") + n_bytes)
        parts.append(self.public_key.e.to_bytes(4, "big"))
        return b"".join(parts)

    @cached_property
    def _encoding(self) -> bytes:
        sig = self.signature
        return self.tbs_bytes() + len(sig).to_bytes(2, "big") + sig

    @cached_property
    def _fingerprint(self) -> str:
        return hashlib.sha256(self._encoding).hexdigest()

    def encode(self) -> bytes:
        """The full encoding, computed once per certificate object."""
        return self._encoding

    @classmethod
    def decode(cls, data: bytes) -> "Certificate":
        subject, offset = _decode_str(data, 0)
        issuer, offset = _decode_str(data, offset)
        san_count = int.from_bytes(data[offset : offset + 2], "big")
        offset += 2
        san = []
        for _ in range(san_count):
            name, offset = _decode_str(data, offset)
            san.append(name)
        serial = int.from_bytes(data[offset : offset + 8], "big")
        offset += 8
        not_before = int.from_bytes(data[offset : offset + 4], "big")
        offset += 4
        not_after = int.from_bytes(data[offset : offset + 4], "big")
        offset += 4
        is_ca = data[offset] == 1
        offset += 1
        n_len = int.from_bytes(data[offset : offset + 2], "big")
        offset += 2
        n = int.from_bytes(data[offset : offset + n_len], "big")
        offset += n_len
        e = int.from_bytes(data[offset : offset + 4], "big")
        offset += 4
        sig_len = int.from_bytes(data[offset : offset + 2], "big")
        offset += 2
        signature = data[offset : offset + sig_len]
        return cls(
            subject=subject,
            issuer=issuer,
            san=tuple(san),
            serial=serial,
            not_before=not_before,
            not_after=not_after,
            public_key=RsaPublicKey(n=n, e=e),
            is_ca=is_ca,
            signature=signature,
        )

    def fingerprint(self) -> str:
        """SHA-256 fingerprint of the full encoding (Table 5 comparisons),
        computed once per certificate object."""
        return self._fingerprint

    @property
    def self_signed(self) -> bool:
        return self.subject == self.issuer


def hostname_matches(pattern: str, hostname: str) -> bool:
    """RFC 6125-style match with single left-most wildcard labels."""
    return _matches(pattern.lower().rstrip("."), hostname.lower().rstrip("."))


def _matches(pattern: str, hostname: str) -> bool:
    """:func:`hostname_matches` on lower-cased names without a trailing dot."""
    if pattern == hostname:
        return True
    if pattern.startswith("*."):
        suffix = pattern[2:]
        if not suffix:
            return False
        remainder = hostname[: -len(suffix) - 1] if hostname.endswith("." + suffix) else None
        return bool(remainder) and "." not in remainder
    return False


@lru_cache(maxsize=1024)
def _signature(key: RsaPrivateKey, tbs: bytes) -> bytes:
    """``key.sign(tbs)``, computed once per process.

    PKCS#1 v1.5 signing is deterministic, and a longitudinal series
    rebuilds its world every week, re-issuing most certificates byte for
    byte, so a certificate's signature is answered from here after its
    first issue.  The memo sits at the certificate call sites, not in
    :meth:`RsaPrivateKey.sign`: a CertificateVerify signs a fresh
    transcript every handshake and would only churn it.
    """
    return key.sign(tbs)


class CertificateAuthority:
    """A root CA that issues leaf certificates for the simulated PKI."""

    def __init__(self, name: str = "Repro Root CA", seed: str = "root-ca", key_bits: int = 1024):
        self.key = derived_rsa_key(key_bits, seed)
        self._serials = DeterministicRandom(seed).child("serials")
        root = Certificate(
            subject=name,
            issuer=name,
            san=(),
            serial=self._serials.getrandbits(63),
            not_before=0,
            not_after=10_000,
            public_key=self.key.public_key,
            is_ca=True,
        )
        self.root = replace(root, signature=_signature(self.key, root.tbs_bytes()))

    def issue(
        self,
        subject: str,
        san: Sequence[str],
        key: Optional[RsaPrivateKey] = None,
        not_before: int = 0,
        not_after: int = 10_000,
        key_bits: int = 512,
        key_seed: Optional[str] = None,
    ) -> Tuple[Certificate, RsaPrivateKey]:
        """Issue a leaf certificate; generates a key if none is given."""
        if key is None:
            key = derived_rsa_key(key_bits, key_seed or f"leaf:{subject}")
        cert = Certificate(
            subject=subject,
            issuer=self.root.subject,
            san=tuple(san),
            serial=self._serials.getrandbits(63),
            not_before=not_before,
            not_after=not_after,
            public_key=key.public_key,
            is_ca=False,
        )
        signed = replace(cert, signature=_signature(self.key, cert.tbs_bytes()))
        return signed, key


def make_self_signed(
    subject: str,
    san: Sequence[str] = (),
    key_bits: int = 512,
    seed: Optional[str] = None,
) -> Tuple[Certificate, RsaPrivateKey]:
    """A self-signed certificate (Google's no-SNI error cert on TCP)."""
    key = derived_rsa_key(key_bits, seed or f"selfsigned:{subject}")
    cert = Certificate(
        subject=subject,
        issuer=subject,
        san=tuple(san),
        serial=1,
        not_before=0,
        not_after=10_000,
        public_key=key.public_key,
        is_ca=False,
    )
    signed = replace(cert, signature=_signature(key, cert.tbs_bytes()))
    return signed, key


def verify_chain(
    chain: Sequence[Certificate],
    trusted_roots: Sequence[Certificate],
    server_name: Optional[str] = None,
    week: Optional[int] = None,
) -> List[str]:
    """Validate a certificate chain; returns a list of error strings.

    An empty list means the chain verifies.  The QScanner records but
    does not enforce validation results, like the paper's tooling.

    The name and validity-week checks depend on the caller and are a
    few string compares; the RSA signature walk depends only on the
    chain and the roots and is by far the most expensive part of a
    successful scan, so it alone is memoised: a campaign validates the
    same per-deployment chain for every domain pointing at that
    deployment.
    """
    if not chain:
        return ["empty certificate chain"]
    errors: List[str] = []
    leaf = chain[0]
    if server_name is not None:
        hostname = server_name.lower().rstrip(".")
        for name in leaf.san or (leaf.subject,):
            if _matches(name.lower().rstrip("."), hostname):
                break
        else:
            errors.append(f"hostname {server_name!r} not covered by certificate")
    if week is not None and not (leaf.not_before <= week <= leaf.not_after):
        errors.append("certificate expired or not yet valid")
    errors.extend(_signature_walk(tuple(chain), tuple(trusted_roots)))
    return errors


@lru_cache(maxsize=4096)
def _signature_walk(
    chain: Tuple[Certificate, ...], trusted_roots: Tuple[Certificate, ...]
) -> Tuple[str, ...]:
    """The chain's signature errors, one RSA walk per (chain, roots)."""
    errors: List[str] = []
    # Walk the chain: each certificate must be signed by the next one,
    # the last by a trusted root (or be a trusted root / self-signed).
    for index, cert in enumerate(chain):
        if index + 1 < len(chain):
            issuer_cert = chain[index + 1]
        else:
            by_subject = {root.subject: root for root in trusted_roots}
            issuer_cert = by_subject.get(cert.issuer, cert if cert.self_signed else None)
            if issuer_cert is None:
                errors.append(f"issuer {cert.issuer!r} not trusted")
                break
            if cert.self_signed and cert not in trusted_roots:
                errors.append("self-signed certificate")
        try:
            issuer_cert.public_key.verify(cert.tbs_bytes(), cert.signature)
        except SignatureError:
            errors.append(f"bad signature on certificate {cert.subject!r}")
            break
    return tuple(errors)
