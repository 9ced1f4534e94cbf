"""The TLS 1.3 key schedule (RFC 8446 §7.1).

Derives handshake and application traffic secrets from the (EC)DH
shared secret and the running transcript hash, plus the finished keys
used to compute and verify Finished messages.  QUIC reuses the traffic
secrets to derive packet protection keys (RFC 9001 §5.1).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from repro.crypto.hkdf import hkdf_expand_label, hkdf_extract, hmac_digest

__all__ = ["KeySchedule", "TrafficSecrets"]


@lru_cache(maxsize=None)
def _empty_hash(hash_name: str) -> bytes:
    """Hash of the empty string — the 'derived' context (RFC 8446 §7.1)."""
    return hashlib.new(hash_name).digest()


@lru_cache(maxsize=None)
def _hash_constants(hash_name: str) -> Tuple[object, bytes, bytes]:
    """Per hash: an empty transcript context, the PSK-less early secret
    and its ``derived`` child (RFC 8446 §7.1).

    Without a PSK the early secret is HKDF-Extract(0, 0), so it and the
    ``derived`` secret it expands to over the empty hash depend only on
    the hash.
    """
    empty = hashlib.new(hash_name)
    zeros = bytes(empty.digest_size)
    early = hkdf_extract(zeros, zeros, hash_name)
    derived = hkdf_expand_label(early, b"derived", _empty_hash(hash_name), len(zeros), hash_name)
    return empty, early, derived


@dataclass
class TrafficSecrets:
    client: bytes
    server: bytes


class KeySchedule:
    """Incremental key schedule bound to a hash algorithm.

    With ``psk`` set, the early secret is extracted from the
    pre-shared key (resumption), enabling binder keys and early
    (0-RTT) traffic secrets (RFC 8446 §4.2.11, §7.1).
    """

    def __init__(self, hash_name: str = "sha256", psk: Optional[bytes] = None):
        empty, early, derived = _hash_constants(hash_name)
        self.hash_name = hash_name
        self.hash_len = empty.digest_size
        self._transcript = empty.copy()
        # The running transcript's own update: one call per message.
        self.update_transcript = self._transcript.update
        if psk:
            zeros = bytes(self.hash_len)
            early = hkdf_extract(zeros, psk, hash_name)
            derived = None
        self._early_secret = early
        self._derived_early: Optional[bytes] = derived
        self._handshake_secret: Optional[bytes] = None
        self._master_secret: Optional[bytes] = None

    # -- transcript ---------------------------------------------------------
    def transcript_hash(self) -> bytes:
        return self._transcript.copy().digest()

    # -- secrets ------------------------------------------------------------
    def _derive_secrets(self, secret: bytes, client: bytes, server: bytes) -> TrafficSecrets:
        context = self.transcript_hash()
        return TrafficSecrets(
            client=hkdf_expand_label(secret, client, context, self.hash_len, self.hash_name),
            server=hkdf_expand_label(secret, server, context, self.hash_len, self.hash_name),
        )

    def _derive_secret(self, secret: bytes, label: bytes) -> bytes:
        return hkdf_expand_label(
            secret, label, self.transcript_hash(), self.hash_len, self.hash_name
        )

    def set_shared_secret(self, shared_secret: bytes) -> None:
        """Install the (EC)DH result; call after ServerHello is in the
        transcript to derive handshake traffic secrets."""
        derived = self._derived_early
        if derived is None:
            derived = hkdf_expand_label(
                self._early_secret,
                b"derived",
                _empty_hash(self.hash_name),
                self.hash_len,
                self.hash_name,
            )
        self._handshake_secret = hkdf_extract(derived, shared_secret, self.hash_name)

    def handshake_traffic_secrets(self) -> TrafficSecrets:
        if self._handshake_secret is None:
            raise RuntimeError("shared secret not installed")
        return self._derive_secrets(self._handshake_secret, b"c hs traffic", b"s hs traffic")

    def derive_master_secret(self) -> None:
        if self._handshake_secret is None:
            raise RuntimeError("shared secret not installed")
        derived = hkdf_expand_label(
            self._handshake_secret,
            b"derived",
            _empty_hash(self.hash_name),
            self.hash_len,
            self.hash_name,
        )
        self._master_secret = hkdf_extract(derived, bytes(self.hash_len), self.hash_name)

    def application_traffic_secrets(self) -> TrafficSecrets:
        """Application secrets over the transcript through server Finished."""
        if self._master_secret is None:
            self.derive_master_secret()
        assert self._master_secret is not None
        return self._derive_secrets(self._master_secret, b"c ap traffic", b"s ap traffic")

    # -- finished ------------------------------------------------------------
    def finished_verify_data(self, base_secret: bytes) -> bytes:
        """verify_data over the current transcript for one side."""
        finished_key = hkdf_expand_label(
            base_secret, b"finished", b"", self.hash_len, self.hash_name
        )
        return hmac_digest(finished_key, self.transcript_hash(), self.hash_name)

    # -- resumption / 0-RTT (RFC 8446 §4.2.11, §4.6.1) ------------------------
    def psk_binder(self, truncated_client_hello: bytes) -> bytes:
        """The PSK binder over a truncated ClientHello (fresh transcript)."""
        binder_key = hkdf_expand_label(
            self._early_secret,
            b"res binder",
            _empty_hash(self.hash_name),
            self.hash_len,
            self.hash_name,
        )
        finished_key = hkdf_expand_label(
            binder_key, b"finished", b"", self.hash_len, self.hash_name
        )
        transcript = hashlib.new(self.hash_name, truncated_client_hello).digest()
        return hmac_digest(finished_key, transcript, self.hash_name)

    def early_traffic_secret(self) -> bytes:
        """client_early_traffic_secret over the (full) ClientHello."""
        return self._derive_secret(self._early_secret, b"c e traffic")

    def resumption_master_secret(self) -> bytes:
        """Derived over the transcript through the client Finished."""
        if self._master_secret is None:
            self.derive_master_secret()
        assert self._master_secret is not None
        return self._derive_secret(self._master_secret, b"res master")

    @staticmethod
    def psk_from_resumption(
        resumption_master: bytes, ticket_nonce: bytes, hash_name: str = "sha256"
    ) -> bytes:
        """PSK = HKDF-Expand-Label(res_master, "resumption", nonce)."""
        hash_len = hashlib.new(hash_name).digest_size
        return hkdf_expand_label(
            resumption_master, b"resumption", ticket_nonce, hash_len, hash_name
        )
