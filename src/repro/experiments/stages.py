"""The stage table: the twelve scan stages of a weekly campaign.

The paper's pipeline (§3) crosses four methods — ZMap QUIC, ZMap TCP
SYN, Goscanner (TLS over TCP) and QScanner (QUIC) — with two address
families and, for the two stateful scanners, with and without SNI.
Each stage is one :class:`Stage` row of :data:`STAGES`, in canonical
execution order (dependencies first), and everything that knows about
stages derives from these rows: the campaign's stage accessors, the
values a stage reads, the inputs that gate the stage cache and decide
what a lazily accessed stage streams with, the streaming engine's
consumers, barrier stages and dispatch depths, the delta merge keys,
and the stage lists of the report, the warehouse loader, QA and marts.

This module is the only place in ``repro`` that spells a stage name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

__all__ = [
    "ZMAP",
    "SYN",
    "GOSCANNER",
    "QSCAN",
    "DNS_RECORDS",
    "IPV6_SCAN_INPUT",
    "Stage",
    "STAGES",
    "STAGE_NAMES",
    "TRACKED_NAMES",
    "BY_NAME",
    "find",
    "names",
    "paper_order",
    "stage_inputs",
]

# Scanner kinds, in pipeline order.
ZMAP = "zmap"  # stateless QUIC sweep with a forced version negotiation
SYN = "syn"  # stateless TCP SYN sweep on :443
GOSCANNER = "goscanner"  # stateful TLS over TCP, harvesting Alt-Svc
QSCAN = "qscan"  # stateful QUIC handshakes

# The unsharded stages every scan stage reads through.
DNS_RECORDS = "dns_records"
IPV6_SCAN_INPUT = "ipv6_scan_input"


@dataclass(frozen=True)
class Stage:
    """One scan stage: a scanner kind over one address family."""

    name: str
    kind: str  # zmap | syn | goscanner | qscan
    family: int  # 4 | 6
    sni: bool = False

    @property
    def sweep(self) -> bool:
        """A stateless sweep: a source of the streaming dataflow."""
        return self.kind in (ZMAP, SYN)

    @property
    def walks_space(self) -> bool:
        """An IPv4 sweep: it walks the address space, not a target list."""
        return self.sweep and self.family == 4

    @property
    def label(self) -> str:
        """The stateful scanner's seed label (``nosni4`` … ``sni6``)."""
        return f"{'sni' if self.sni else 'nosni'}{self.family}"

    @property
    def upstream(self) -> Optional["Stage"]:
        """The sweep whose records are this stage's targets, record by record.

        Any prefix of the upstream records yields a prefix of the target
        list, which is what lets the streaming engine feed this stage
        chunk by chunk.  None for sweeps, and for the SNI QScanner,
        whose target union needs whole upstream stages (:attr:`barrier`).
        """
        if self.kind == GOSCANNER:
            return find(SYN, self.family)
        if self.kind == QSCAN and not self.sni:
            return find(ZMAP, self.family)
        return None

    @property
    def barrier(self) -> Tuple[str, ...]:
        """Stages that must finish before this one's targets exist."""
        if self.kind == QSCAN and self.sni:
            zmap = find(ZMAP, self.family)
            return (zmap.name, find(GOSCANNER, self.family, sni=True).name)
        return ()

    @property
    def consumers(self) -> Tuple["Stage", ...]:
        """Stages fed by this one's records as its chunks complete."""
        return tuple(stage for stage in STAGES if stage.upstream == self)

    @property
    def depth(self) -> int:
        """Pipeline depth; the streaming engine drains deeper stages first."""
        if self.sweep:
            return 0
        return 2 if self.barrier else 1

    @property
    def deps(self) -> Tuple[str, ...]:
        """Campaign values the stage's targets derive from.

        A serial compute resolves them before it opens the stage's
        fault epoch; a stream derives each chunk's targets from them in
        the parent, so workers never read them.
        """
        if self.sweep:
            return (IPV6_SCAN_INPUT,) if self.family == 6 else ()
        if self.barrier:
            return (f"sni_targets_v{self.family}",)
        return (self.upstream.name,) + (("dns_join",) if self.sni else ())

    @property
    def inputs(self) -> Tuple[str, ...]:
        """Health-tracked stages this stage reads, through derived lists too.

        A stage is cached only when every transitive input completed
        ``success`` (:meth:`repro.experiments.campaign.Campaign._tainted`),
        and a lazily accessed stage streams together with the inputs
        the campaign still lacks.
        """
        if self.sweep:
            return self.deps
        if self.barrier:
            zmap, goscanner = self.barrier
            return (zmap, DNS_RECORDS, goscanner)
        return (self.upstream.name,) + ((DNS_RECORDS,) if self.sni else ())

    def address(self, item):
        """The target address of one of this stage's target items."""
        return item[0] if self.sni else item

    def item_key(self, item):
        """Delta-merge key of a target item: what identifies the target."""
        if not self.sni:
            return str(item)
        return (str(item[0]),) + tuple(item[1:])

    def record_key(self, record):
        """The :meth:`item_key` of the target a record was scanned for."""
        if not self.sni:
            return str(record.address)
        if self.kind == QSCAN:
            return (str(record.address), record.sni, record.source)
        return (str(record.address), record.sni)


STAGES: Tuple[Stage, ...] = (
    Stage("zmap_v4", ZMAP, 4),
    Stage("zmap_v6", ZMAP, 6),
    Stage("syn_v4", SYN, 4),
    Stage("syn_v6", SYN, 6),
    Stage("goscanner_nosni_v4", GOSCANNER, 4),
    Stage("goscanner_sni_v4", GOSCANNER, 4, sni=True),
    Stage("goscanner_nosni_v6", GOSCANNER, 6),
    Stage("goscanner_sni_v6", GOSCANNER, 6, sni=True),
    Stage("qscan_nosni_v4", QSCAN, 4),
    Stage("qscan_nosni_v6", QSCAN, 6),
    Stage("qscan_sni_v4", QSCAN, 4, sni=True),
    Stage("qscan_sni_v6", QSCAN, 6, sni=True),
)

BY_NAME: Dict[str, Stage] = {stage.name: stage for stage in STAGES}


def find(kind: str, family: int, sni: bool = False) -> Stage:
    """The stage of one scanner kind, address family and SNI mode."""
    for stage in STAGES:
        if (stage.kind, stage.family, stage.sni) == (kind, family, sni):
            return stage
    raise KeyError((kind, family, sni))


def names(kind: Optional[str] = None) -> Tuple[str, ...]:
    """Stage names in canonical order, optionally of one scanner kind."""
    return tuple(stage.name for stage in STAGES if kind is None or stage.kind == kind)


STAGE_NAMES: Tuple[str, ...] = names()

# Every stage a campaign tracks the health of, in the order reports
# list them: the unsharded stages, then the stage table.
TRACKED_NAMES: Tuple[str, ...] = (DNS_RECORDS, IPV6_SCAN_INPUT) + STAGE_NAMES


def paper_order(kind: str) -> Tuple[Stage, ...]:
    """One kind's stages in the paper's table columns: IPv4 first, no SNI first."""
    return tuple(
        sorted(
            (stage for stage in STAGES if stage.kind == kind),
            key=lambda stage: (stage.family, stage.sni),
        )
    )


def stage_inputs(name: str) -> Tuple[str, ...]:
    """:attr:`Stage.inputs` for any health-tracked stage, unsharded ones too."""
    if name == IPV6_SCAN_INPUT:
        return (DNS_RECORDS,)
    stage = BY_NAME.get(name)
    return stage.inputs if stage is not None else ()
