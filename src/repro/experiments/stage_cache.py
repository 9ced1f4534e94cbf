"""Persistent on-disk cache for campaign scan stages.

Every stage of a :class:`~repro.experiments.campaign.Campaign` is a
pure function of the campaign configuration, so completed stages can
be reused across processes and sessions.  Records are pickled one
stage per file under ``<root>/campaigns/<config-hash>/<stage>.pkl``;
the config hash covers every configuration field (via
``CampaignConfig.cache_key``) plus an explicit format version, so a
change to either invalidates the whole entry rather than serving stale
records.

The cache is strictly an optimisation, and every failure mode is
non-fatal:

- corrupt, truncated or version-skewed entries are discarded (and
  counted in the ``cache.corrupt_discarded`` metric, with a trace
  event, so degraded caches show up in ``repro report``),
- store failures — disk full, unwritable cache root — are logged,
  counted in ``cache.store_failures``, and the campaign simply
  continues uncached.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sys
import tempfile
from pathlib import Path
from typing import Optional

__all__ = ["CampaignStageCache", "CACHE_VERSION"]

# Bump whenever the record schema or stage semantics change; old
# entries are then invalidated automatically.
# v2: QScanRecord gained wire-cost fields (retry_seen, datagrams_*).
# v3: QScanRecord/GoscannerRecord gained the retry `attempts` field.
# v4: every PKI key changed (sieved, top-two-bits primes) and each
#     group's TCP no-SNI path now serves its own self-signed pair, so
#     certificate fingerprints in TLS records differ from v3's.
# v5: the DNS stage pickles per list as listed names plus answered
#     records by position (DnsListRecords), not one record per name.
# v6: those listed names pickle as the world's NameRun (hosted names
#     plus a filler count), not one string per name.
CACHE_VERSION = 6

# Everything that makes a cache entry unreadable rather than absent.
_CORRUPT_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    ValueError,
)


class CampaignStageCache:
    """Content-keyed stage cache for one campaign configuration."""

    def __init__(self, root, config, metrics=None, tracer=None):
        self._key = config.cache_key()
        digest = hashlib.sha256(
            repr((CACHE_VERSION, self._key)).encode()
        ).hexdigest()[:16]
        self._dir = Path(root) / "campaigns" / digest
        self.hits = 0
        self.misses = 0
        self.corrupt_discarded = 0
        self.store_failures = 0
        self._metrics = metrics
        self._tracer = tracer

    @property
    def directory(self) -> Path:
        return self._dir

    def _path(self, stage: str) -> Path:
        return self._dir / f"{stage}.pkl"

    def _note_discard(self, stage: str, reason: str) -> None:
        """Account one unusable cache entry (corrupt or version skew)."""
        self.corrupt_discarded += 1
        if self._metrics is not None:
            self._metrics.counter("cache.corrupt_discarded", reason=reason).inc()
        if self._tracer is not None:
            self._tracer.event("cache.corrupt", stage=stage, reason=reason)

    def _note_store_failure(self, stage: str, error: Exception) -> None:
        self.store_failures += 1
        if self._metrics is not None:
            self._metrics.counter("cache.store_failures").inc()
        if self._tracer is not None:
            self._tracer.event(
                "cache.store_failed", stage=stage, error=type(error).__name__
            )
        print(
            f"warning: stage cache store failed for {stage!r}: {error}",
            file=sys.stderr,
        )

    def load(self, stage: str) -> Optional[object]:
        """Return the cached records for a stage, or None on any miss."""
        path = self._path(stage)
        try:
            with open(path, "rb") as stream:
                payload = pickle.load(stream)
        except FileNotFoundError:
            self.misses += 1
            return None
        except _CORRUPT_ERRORS + (OSError,):
            # Truncated or corrupt entries are misses, not errors — but
            # they are counted and dropped so they cannot recur.
            self._note_discard(stage, "corrupt")
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CACHE_VERSION
            or payload.get("key") != self._key
            or payload.get("stage") != stage
        ):
            # Version or key skew: drop the stale entry explicitly.
            self._note_discard(stage, "skew")
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return None
        self.hits += 1
        return payload["records"]

    def store(self, stage: str, records) -> None:
        """Persist one stage's records (atomic rename, never fatal)."""
        payload = {
            "version": CACHE_VERSION,
            "key": self._key,
            "stage": stage,
            "records": records,
        }
        tmp = None
        try:
            self._dir.mkdir(parents=True, exist_ok=True)
            self._write_meta()
            fd, tmp = tempfile.mkstemp(dir=self._dir, suffix=".tmp")
            with os.fdopen(fd, "wb") as stream:
                pickle.dump(payload, stream, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, self._path(stage))
        except (OSError, pickle.PicklingError, AttributeError, TypeError) as error:
            # Disk full or unwritable root never fails the scan — the
            # campaign continues uncached.
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
            self._note_store_failure(stage, error)

    def _write_meta(self) -> None:
        """Human-readable record of what this entry caches."""
        meta = self._dir / "meta.json"
        if meta.exists():
            return
        meta.write_text(
            json.dumps(
                {"cache_version": CACHE_VERSION, "config": repr(self._key)},
                indent=2,
            )
            + "\n"
        )
