"""QUIC Initial packet protection key derivation (RFC 9001 §5.2).

Initial packets are protected with AES-128-GCM under keys derived from
the client's Destination Connection ID and a version-specific salt, so
any observer of the first flight can compute them — but a conforming
endpoint must still implement this machinery.  The ZMap module's probe
packets deliberately do *not* carry valid protection (the server must
answer a reserved version with Version Negotiation before touching the
payload), whereas QScanner's real Initials are fully protected.

Validated against the RFC 9001 Appendix A test vectors in the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.crypto.aead import AeadAes128Gcm, header_mask_aes
from repro.crypto.hkdf import hkdf_expand_label, hkdf_extract
from repro.quic.versions import QUIC_V1

__all__ = ["InitialKeys", "derive_initial_keys", "INITIAL_SALT_V1"]

# RFC 9001 §5.2 (QUIC v1).  Draft versions 23-32 share the draft salt;
# draft-33/34 use the v1 salt.
INITIAL_SALT_V1 = bytes.fromhex("38762cf7f55934b34d179ae6a4c80cadccbb7f0a")
INITIAL_SALT_DRAFT_29 = bytes.fromhex("afbfec289993d24c9e9786f19c6111e04390a899")


def _salt_for_version(version: int) -> bytes:
    if version == QUIC_V1 or (version & 0xFFFFFF00) == 0xFF000000 and (version & 0xFF) >= 33:
        return INITIAL_SALT_V1
    if (version & 0xFFFFFF00) == 0xFF000000:
        return INITIAL_SALT_DRAFT_29
    # Unknown families fall back to the v1 salt; in the simulation both
    # endpoints are ours so consistency is what matters.
    return INITIAL_SALT_V1


@dataclass
class DirectionKeys:
    """Key material for one direction at the Initial encryption level."""

    key: bytes
    iv: bytes
    hp: bytes

    def aead(self) -> AeadAes128Gcm:
        return AeadAes128Gcm(self.key)

    def header_mask(self, sample: bytes) -> bytes:
        return header_mask_aes(self.hp, sample)


@dataclass
class InitialKeys:
    client: DirectionKeys
    server: DirectionKeys


def _direction(secret: bytes) -> DirectionKeys:
    return DirectionKeys(
        key=hkdf_expand_label(secret, b"quic key", b"", 16),
        iv=hkdf_expand_label(secret, b"quic iv", b"", 12),
        hp=hkdf_expand_label(secret, b"quic hp", b"", 16),
    )


@lru_cache(maxsize=4096)
def derive_initial_keys(dcid: bytes, version: int = QUIC_V1) -> InitialKeys:
    """Derive client and server Initial keys from the original DCID.

    Memoised on (DCID, version): the client and the simulated server
    each derive the same ladder for every connection, so the second
    derivation — and any retransmission — is a dictionary lookup.
    """
    initial_secret = hkdf_extract(_salt_for_version(version), dcid)
    client_secret = hkdf_expand_label(initial_secret, b"client in", b"", 32)
    server_secret = hkdf_expand_label(initial_secret, b"server in", b"", 32)
    return InitialKeys(client=_direction(client_secret), server=_direction(server_secret))
