"""Incremental delta scans: rescan only what changed week-over-week.

A weekly campaign's stateful stages (TLS and QUIC handshakes) dominate
its cost, yet most deployments are identical to the previous week.
:func:`world_signature` condenses everything that can influence a
deployment's scan records — provider group, pool, per-index draws
(server value, transport-parameter key, Alt-Svc token rotation),
hosted domains, the week's ``version_set``, Google's VM-handshake
state and the certificate roll week — into one digest per address.
A week's :class:`~repro.experiments.campaign.Campaign` given the
previous completed week as its base (:class:`PreviousWeek`) splits
each stateful chunk's targets before scanning
(:meth:`~repro.experiments.campaign.Campaign.delta_split`): a target
whose address is unchanged (:meth:`PreviousWeek.unchanged`) and whose
key has a cached base-week record merges that record by position;
every other target is scanned with the scanner ``seek``'ed to its
absolute serial index.  A serial week splits each stage in-process, a
streamed one in the parent as it cuts the stage into chunks, so a
chunk of hits alone ships no task.

Correctness contract: **delta output is byte-identical to a full
scan**, serial or streamed.  This holds because (a) every scanner
derives per-target rng state from the target's absolute position
(``seek``), (b) host fault state is per-host, per-stage-epoch and
anchored to host-local time, and (c) changed/unchanged classification
is per *address*, so a rescanned host always sees its complete (and
consecutive) target sequence.
Hosts selected by the campaign's fault profile are forced onto the
rescan path — their records depend on fault state the signature cannot
see; :func:`repro.netsim.faults.profile_selected` names them with the
seed :func:`~repro.netsim.faults.configure_world` installs faults by.
``tests/test_longitudinal.py`` enforces the contract differentially
(plain and under ``flaky-edge`` chaos), and ``tests/test_identity.py``
holds a delta series on two workers to the serial one.

Sweep stages (ZMap, SYN) and DNS are cheap and always run in full —
they are also what *detects* new deployments and HTTPS-RR changes.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, List, Optional

from repro.experiments.campaign import Campaign, CampaignConfig, build_config_world
from repro.internet.providers import GROUPS
from repro.internet.timeline import google_vm_active, version_set
from repro.netsim.faults import profile_selected

__all__ = [
    "WORLD_SIGNATURE_STAGE",
    "world_signature",
    "PreviousWeek",
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

    def signature(self) -> Dict[str, str]:
        """The previous week's world signature (cache, else rebuilt)."""
        if self._signature is None:
            cached = self._cache.load(WORLD_SIGNATURE_STAGE)
            if cached is None:
                world = build_config_world(self._config)
                cached = world_signature(world, self._config.week)
            self._signature = cached
        return self._signature

    def stage_records(self, name: str) -> Optional[List]:
        """The previous week's records for a stage, or None on a miss."""
        return self._cache.load(name)

    def unchanged(self, world, config: CampaignConfig) -> FrozenSet[str]:
        """The addresses of ``config``'s ``world`` whose records may merge.

        An address qualifies when its signature in ``world`` equals its
        signature in this (the base) week and ``config``'s fault profile
        does not select it.
        """
        previous, current = self.signature(), world_signature(world, config.week)
        unchanged = set()
        for deployment in world.deployments:
            key = str(deployment.address)
            if previous.get(key) == current[key] and not profile_selected(
                config, deployment.address
            ):
                unchanged.add(key)
        return frozenset(unchanged)


def build_week_campaign(
    config: CampaignConfig,
    cache_dir,
    previous_config: Optional[CampaignConfig] = None,
    workers: int = 1,
) -> Campaign:
    """One week's campaign: a delta week against ``previous_config`` when given.

    With ``workers > 1`` every week, delta or full, streams on the
    campaign's own pool, which ``Campaign.close`` shuts down.
    """
    base = None if previous_config is None else PreviousWeek(previous_config, cache_dir)
    return Campaign(config, workers=workers, cache_dir=cache_dir, base=base)
