"""Incremental delta scans: rescan only what changed week-over-week.

A weekly campaign's stateful stages (TLS and QUIC handshakes) dominate
its cost, yet most deployments are identical to the previous week.
:func:`world_signature` condenses everything that can influence a
deployment's scan records — provider group, pool, per-index draws
(server value, transport-parameter key, Alt-Svc token rotation),
hosted domains, the week's ``version_set``, Google's VM-handshake
state and the certificate roll week — into one digest per address.
:class:`DeltaCampaign` then walks each stateful stage's target list in
exact serial order, merging the previous completed week's cached
record wherever the signature (and target key) is unchanged and
re-scanning the rest with the scanner ``seek``'ed to the target's
absolute serial index.

Correctness contract: **delta output is byte-identical to a full
scan.**  This holds because (a) every scanner derives per-target rng
state from the target's absolute position (``seek``), (b) host fault
state is per-host, per-stage-epoch and anchored to host-local time, and
(c) changed/unchanged classification is per *address*, so a rescanned
host always sees its complete (and consecutive) target sequence.
Hosts selected by the campaign's fault profile are forced onto the
rescan path — their records depend on fault state the signature cannot
see; :func:`repro.netsim.faults.profile_selected` names them with the
seed :func:`~repro.netsim.faults.configure_world` installs faults by.
``tests/test_longitudinal.py`` enforces the contract differentially
(plain and under ``flaky-edge`` chaos).

Sweep stages (ZMap, SYN) and DNS are cheap and always run in full —
they are also what *detects* new deployments and HTTPS-RR changes.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from repro.experiments.campaign import Campaign, CampaignConfig
from repro.internet.generator import build_world
from repro.internet.providers import GROUPS
from repro.internet.timeline import google_vm_active, version_set
from repro.netsim.faults import profile_selected

__all__ = [
    "WORLD_SIGNATURE_STAGE",
    "world_signature",
    "PreviousWeek",
    "DeltaCampaign",
    "build_week_campaign",
]

# Stage-cache key under which each completed week's world signature is
# persisted (alongside the stage record pickles).
WORLD_SIGNATURE_STAGE = "world_signature"


def world_signature(world, week: int) -> Dict[str, str]:
    """Per-address digest of everything that shapes a deployment's records.

    The deployment's index within its provider group is reconstructed
    by position (the generator assigns one incrementing index per
    group, appending deployments in order), because index-derived draws
    (server value, transport parameters, Alt-Svc rotation, TLS1.3
    support) are part of the host's behaviour.
    """
    groups = {group.key: group for group in GROUPS}
    indexes: Dict[str, int] = {}
    signature: Dict[str, str] = {}
    for deployment in world.deployments:
        index = indexes.get(deployment.group, 0)
        indexes[deployment.group] = index + 1
        group = groups[deployment.group]
        vm_versions = (
            version_set("google-vm", week)
            if deployment.pool == "vm" and google_vm_active(week)
            else None
        )
        state = (
            deployment.group,
            deployment.pool,
            index,
            deployment.asn,
            deployment.server_value,
            deployment.tparam_key,
            tuple(deployment.domains),
            deployment.altsvc_tokens,
            deployment.cert_digest,
            version_set(group.versions_key, week),
            vm_versions,
            week if group.cert_roll_weekly else 0,
        )
        signature[str(deployment.address)] = hashlib.sha256(
            repr(state).encode()
        ).hexdigest()[:16]
    return signature


class PreviousWeek:
    """Read-only view of the previous completed week's cached state."""

    def __init__(self, config: CampaignConfig, cache_root):
        from repro.experiments.stage_cache import CampaignStageCache

        self._config = config
        self._cache = CampaignStageCache(cache_root, config)
        self._signature: Optional[Dict[str, str]] = None

    @property
    def week(self) -> int:
        return self._config.week

    def signature(self) -> Dict[str, str]:
        """The previous week's world signature (cache, else rebuilt)."""
        if self._signature is None:
            cached = self._cache.load(WORLD_SIGNATURE_STAGE)
            if cached is None:
                world = build_world(
                    week=self._config.week,
                    scale=self._config.scale,
                    seed=self._config.seed,
                    fast_crypto=self._config.fast_crypto,
                )
                cached = world_signature(world, self._config.week)
            self._signature = cached
        return self._signature

    def stage_records(self, name: str) -> Optional[List]:
        """The previous week's records for a stage, or None on a miss."""
        return self._cache.load(name)


def build_week_campaign(
    config: CampaignConfig,
    cache_dir,
    previous_config: Optional[CampaignConfig] = None,
    workers: int = 1,
) -> Campaign:
    """One week's campaign: delta against the previous week when given one.

    Used by both the scheduler and the watchdog child so the two sides
    construct byte-identical campaigns over the shared stage cache.

    ``workers`` applies only to a full week, which streams on a pool
    of its own, closed with the campaign.  Delta campaigns are
    hard-serial by design — worker replicas would bypass their merge
    overrides — so they never touch a pool.
    """
    if previous_config is not None:
        return DeltaCampaign(
            config, PreviousWeek(previous_config, cache_dir), cache_dir=cache_dir
        )
    return Campaign(config, workers=workers, cache_dir=cache_dir)


class DeltaCampaign(Campaign):
    """A weekly campaign that merges unchanged records from week N-1.

    Only the stateful stages' chunk scan is overridden; sweeps, DNS
    and all derived target lists run exactly as in :class:`Campaign`.
    Delta campaigns always execute serially (``workers=1``): pool
    workers build plain ``Campaign`` replicas, which would silently
    bypass the overrides.
    """

    def __init__(self, config, previous: PreviousWeek, cache_dir=None, tracer=None):
        super().__init__(config, workers=1, cache_dir=cache_dir, tracer=tracer)
        self._previous = previous
        self.delta_hits: Dict[str, int] = {}
        self.delta_misses: Dict[str, int] = {}
        self._signature: Optional[Dict[str, str]] = None
        self._changed: Dict[str, bool] = {}

    # -- bookkeeping -----------------------------------------------------------

    @property
    def delta_base_week(self) -> int:
        return self._previous.week

    @property
    def delta_hit_total(self) -> int:
        return sum(self.delta_hits.values())

    @property
    def delta_miss_total(self) -> int:
        return sum(self.delta_misses.values())

    def _note_delta(self, stage: str, hits: int, misses: int) -> None:
        self.delta_hits[stage] = hits
        self.delta_misses[stage] = misses
        self.metrics.counter("delta.records", result="hit", stage=stage).inc(hits)
        self.metrics.counter("delta.records", result="miss", stage=stage).inc(misses)

    # -- change classification ---------------------------------------------------

    def _current_signature(self) -> Dict[str, str]:
        if self._signature is None:
            self._signature = world_signature(self.world, self.config.week)
        return self._signature

    def _address_changed(self, address) -> bool:
        """Whether an address must be rescanned this week."""
        key = str(address)
        cached = self._changed.get(key)
        if cached is not None:
            return cached
        current = self._current_signature()
        previous = self._previous.signature()
        changed = (
            key not in current
            or key not in previous
            or current[key] != previous[key]
        )
        if not changed:
            changed = profile_selected(self.config, address)
        self._changed[key] = changed
        return changed

    # -- merged stateful stages --------------------------------------------------

    def _scan_chunk(self, stage, lo, items):
        """Mirror the serial walk, merging unchanged targets from week N-1.

        A target is merged only when its address signature is unchanged
        AND the previous week produced a record under the identical key
        (the row's item key against its record key), so target-list
        churn (new domains, source changes) always rescans.
        """
        previous = None if stage.sweep else self._previous.stage_records(stage.name)
        if previous is None:
            return super()._scan_chunk(stage, lo, items)
        by_key = {stage.record_key(record): record for record in previous}
        scanner = None
        hits = misses = 0
        out = []
        for index, item in enumerate(items, start=lo):
            cached = by_key.get(stage.item_key(item))
            if cached is not None and not self._address_changed(stage.address(item)):
                out.append((index, cached))
                hits += 1
                continue
            if scanner is None:
                scanner = self._scanner(stage)
            scanner.seek(index)
            out.append((index, self._scan_item(stage, scanner, item)))
            misses += 1
        self._note_delta(stage.name, hits, misses)
        return out
