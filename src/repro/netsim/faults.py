"""Composable, deterministic fault injection for the simulated Internet.

The paper's measurements are dominated by failure — 34.5 % of QScanner
targets time out, hosts rate-limit probes, middleboxes block UDP — yet
the base simulation only models uniform loss and fully-silent hosts.
This module adds the realistic failure modes as *fault specs* attached
to a host's :class:`~repro.netsim.topology.NetworkConditions`:

- :class:`BurstLoss` — two-state (Gilbert) burst/tail loss,
- :class:`RateLimit` — token bucket; exhausted buckets drop datagrams
  the way an ICMP administratively-prohibited filter would,
- :class:`UdpBlackhole` — a middlebox that blocks UDP but leaves TCP
  working (the paper's TCP-reachable/QUIC-unreachable population),
- :class:`Truncate` — datagram truncation (broken path MTU handling),
- :class:`Corrupt` — in-flight bit corruption,
- :class:`Flap` — the host disappears and reappears in windows on the
  virtual clock (UDP and TCP),
- :class:`Crash` — the server dies mid-handshake after a datagram
  budget and never answers again (within the stage).

Determinism contract (the invariant the parallel engine relies on):
fault behaviour for a host is a pure function of the campaign fault
seed, the *stage epoch* and the host's own traffic sequence — never of
global virtual time or other hosts' traffic.  The network instantiates
per-host fault state lazily inside each stage epoch
(:meth:`~repro.netsim.topology.Network.begin_fault_epoch`), seeds it
from ``(fault_seed, epoch, address, spec index)``, and time-based
faults measure *host-local* time from the first datagram the host sees
in the epoch.  Because the engine's shard boundaries never split one
host's traffic, serial and ``--workers N`` runs replay identical fault
decisions, record for record.

Profiles (:data:`PROFILES`) bundle fault specs with host fractions;
:func:`apply_profile` selects the affected hosts by seeded hash so the
assignment is stable under any iteration order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.crypto.rand import DeterministicRandom, derive_seed
from repro.netsim.addresses import Address
from repro.netsim import paths

__all__ = [
    "FaultSpec",
    "HostFault",
    "BurstLoss",
    "RateLimit",
    "UdpBlackhole",
    "Truncate",
    "Corrupt",
    "Flap",
    "Crash",
    "ProfileEntry",
    "FaultProfile",
    "PROFILES",
    "get_profile",
    "apply_profile",
    "profile_counts",
    "configure_world",
    "profile_gauges",
    "profile_selected",
    "ServiceFault",
    "ServiceFaultError",
    "SERVICE_FAULT_ENV",
    "SERVICE_FAULT_POINTS",
    "parse_service_fault",
    "maybe_inject_service_fault",
]


# -- per-host fault state ------------------------------------------------------


class HostFault:
    """Live fault state for one host within one stage epoch.

    Subclasses override the hooks they care about.  UDP hooks return
    ``(verdict, data)``: ``verdict`` is ``None`` for untouched delivery
    or a short action label (counted in the ``faults.injected`` metric);
    ``data=None`` means the datagram is consumed.  TCP hooks return
    whether the operation is allowed.

    ``local_time`` anchors time-based behaviour to the first event the
    host sees in the epoch, keeping fault decisions independent of the
    global clock (which differs between serial and sharded runs).
    """

    def __init__(self, kind: str, rng: DeterministicRandom):
        self.kind = kind
        self._rng = rng
        self._t0: Optional[float] = None

    def local_time(self, now: float) -> float:
        if self._t0 is None:
            self._t0 = now
        return now - self._t0

    # -- UDP -------------------------------------------------------------------
    def on_send(self, now: float, data: bytes):
        """A datagram arriving at the host (scanner -> server)."""
        return None, data

    def on_reply(self, now: float, data: bytes):
        """A datagram leaving the host (server -> scanner)."""
        return None, data

    # -- TCP -------------------------------------------------------------------
    def tcp_syn(self, now: float) -> bool:
        """Whether a SYN probe elicits a SYN/ACK."""
        return True

    def tcp_open(self, now: float) -> bool:
        """Whether a full TCP connect succeeds."""
        return True

    def tcp_data(self, now: float) -> bool:
        """Whether session data (either direction) gets through."""
        return True


@dataclass(frozen=True)
class FaultSpec:
    """Immutable template for a fault; instantiated per host per epoch."""

    kind = "fault"

    def instantiate(self, rng: DeterministicRandom) -> HostFault:
        raise NotImplementedError


class _BurstLossState(HostFault):
    def __init__(self, spec: "BurstLoss", rng: DeterministicRandom):
        super().__init__(spec.kind, rng)
        self._spec = spec
        self._bursting = False

    def _step(self) -> bool:
        if self._bursting:
            if self._rng.random() < self._spec.exit_probability:
                self._bursting = False
        elif self._rng.random() < self._spec.enter_probability:
            self._bursting = True
        return self._bursting

    def on_send(self, now: float, data: bytes):
        if self._step():
            return "burst-drop", None
        return None, data

    def on_reply(self, now: float, data: bytes):
        if self._step():
            return "burst-drop", None
        return None, data


@dataclass(frozen=True)
class BurstLoss(FaultSpec):
    """Gilbert-model burst loss: correlated drops, unlike uniform loss."""

    kind = "burst-loss"
    enter_probability: float = 0.15
    exit_probability: float = 0.4

    def instantiate(self, rng: DeterministicRandom) -> HostFault:
        return _BurstLossState(self, rng)


class _RateLimitState(HostFault):
    def __init__(self, spec: "RateLimit", rng: DeterministicRandom):
        super().__init__(spec.kind, rng)
        self._spec = spec
        self._tokens = float(spec.capacity)
        self._last = 0.0

    def _take(self, now: float) -> bool:
        local = self.local_time(now)
        self._tokens = min(
            float(self._spec.capacity),
            self._tokens + (local - self._last) * self._spec.refill_per_second,
        )
        self._last = local
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def on_send(self, now: float, data: bytes):
        if not self._take(now):
            # The filter consumes the datagram; on the real Internet an
            # ICMP administratively-prohibited reply would come back.
            return "admin-prohibited", None
        return None, data

    def tcp_syn(self, now: float) -> bool:
        return self._take(now)

    def tcp_open(self, now: float) -> bool:
        return self._take(now)


@dataclass(frozen=True)
class RateLimit(FaultSpec):
    """Token-bucket rate limiting with administratively-prohibited drops."""

    kind = "rate-limit"
    capacity: int = 8
    refill_per_second: float = 2.0

    def instantiate(self, rng: DeterministicRandom) -> HostFault:
        return _RateLimitState(self, rng)


class _UdpBlackholeState(HostFault):
    def on_send(self, now: float, data: bytes):
        return "udp-blocked", None

    def on_reply(self, now: float, data: bytes):
        return "udp-blocked", None


@dataclass(frozen=True)
class UdpBlackhole(FaultSpec):
    """A middlebox blocking all UDP while TCP stays reachable."""

    kind = "udp-blackhole"

    def instantiate(self, rng: DeterministicRandom) -> HostFault:
        return _UdpBlackholeState(self.kind, rng)


class _TruncateState(HostFault):
    def __init__(self, spec: "Truncate", rng: DeterministicRandom):
        super().__init__(spec.kind, rng)
        self._spec = spec

    def _maybe(self, data: bytes):
        if (
            len(data) > self._spec.keep_bytes
            and self._rng.random() < self._spec.probability
        ):
            return "truncated", data[: self._spec.keep_bytes]
        return None, data

    def on_send(self, now: float, data: bytes):
        return self._maybe(data)

    def on_reply(self, now: float, data: bytes):
        return self._maybe(data)


@dataclass(frozen=True)
class Truncate(FaultSpec):
    """Datagram truncation (broken path-MTU handling on the path)."""

    kind = "truncate"
    probability: float = 0.3
    keep_bytes: int = 200

    def instantiate(self, rng: DeterministicRandom) -> HostFault:
        return _TruncateState(self, rng)


class _CorruptState(HostFault):
    def __init__(self, spec: "Corrupt", rng: DeterministicRandom):
        super().__init__(spec.kind, rng)
        self._spec = spec

    def _maybe(self, data: bytes):
        if data and self._rng.random() < self._spec.probability:
            position = self._rng.randrange(len(data))
            corrupted = bytearray(data)
            corrupted[position] ^= 0xFF
            return "corrupted", bytes(corrupted)
        return None, data

    def on_send(self, now: float, data: bytes):
        return self._maybe(data)

    def on_reply(self, now: float, data: bytes):
        return self._maybe(data)


@dataclass(frozen=True)
class Corrupt(FaultSpec):
    """In-flight bit corruption: one byte of the datagram is flipped."""

    kind = "corrupt"
    probability: float = 0.3

    def instantiate(self, rng: DeterministicRandom) -> HostFault:
        return _CorruptState(self, rng)


class _FlapState(HostFault):
    def __init__(self, spec: "Flap", rng: DeterministicRandom):
        super().__init__(spec.kind, rng)
        self._spec = spec
        period = spec.up_seconds + spec.down_seconds
        self._phase = self._rng.random() * period

    def _up(self, now: float) -> bool:
        period = self._spec.up_seconds + self._spec.down_seconds
        position = (self._phase + self.local_time(now)) % period
        return position < self._spec.up_seconds

    def on_send(self, now: float, data: bytes):
        if not self._up(now):
            return "flap-down", None
        return None, data

    def on_reply(self, now: float, data: bytes):
        if not self._up(now):
            return "flap-down", None
        return None, data

    def tcp_syn(self, now: float) -> bool:
        return self._up(now)

    def tcp_open(self, now: float) -> bool:
        return self._up(now)

    def tcp_data(self, now: float) -> bool:
        return self._up(now)


@dataclass(frozen=True)
class Flap(FaultSpec):
    """The host alternates between reachable and dark windows."""

    kind = "flap"
    up_seconds: float = 4.0
    down_seconds: float = 2.0

    def instantiate(self, rng: DeterministicRandom) -> HostFault:
        return _FlapState(self, rng)


class _CrashState(HostFault):
    def __init__(self, spec: "Crash", rng: DeterministicRandom):
        super().__init__(spec.kind, rng)
        self._spec = spec
        self._seen = 0

    def _alive(self) -> bool:
        return self._seen <= self._spec.after_datagrams

    def on_send(self, now: float, data: bytes):
        self._seen += 1
        if not self._alive():
            return "crashed", None
        return None, data

    def tcp_open(self, now: float) -> bool:
        self._seen += 1
        return self._alive()

    def tcp_data(self, now: float) -> bool:
        self._seen += 1
        return self._alive()


@dataclass(frozen=True)
class Crash(FaultSpec):
    """Mid-handshake server crash: dies after a datagram budget."""

    kind = "crash"
    after_datagrams: int = 2

    def instantiate(self, rng: DeterministicRandom) -> HostFault:
        return _CrashState(self, rng)


# -- profiles ------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileEntry:
    """One fault applied to a seeded fraction of the hosts."""

    fraction: float
    spec: FaultSpec


@dataclass(frozen=True)
class FaultProfile:
    """A named bundle of fault specs with host fractions."""

    name: str
    description: str
    entries: Tuple[ProfileEntry, ...]


PROFILES: Dict[str, FaultProfile] = {
    profile.name: profile
    for profile in (
        FaultProfile(
            name="flaky-edge",
            description=(
                "Bursty edge loss, flapping hosts and occasional datagram "
                "truncation — the default chaos profile."
            ),
            entries=(
                ProfileEntry(0.20, BurstLoss()),
                ProfileEntry(0.10, Flap()),
                ProfileEntry(0.05, Truncate()),
            ),
        ),
        FaultProfile(
            name="rate-limited",
            description="A third of hosts sit behind token-bucket rate limits.",
            entries=(ProfileEntry(0.33, RateLimit()),),
        ),
        FaultProfile(
            name="hostile-middlebox",
            description=(
                "UDP-blocking middleboxes plus corrupting/truncating paths "
                "(the TCP-works/QUIC-fails population)."
            ),
            entries=(
                ProfileEntry(0.15, UdpBlackhole()),
                ProfileEntry(0.10, Corrupt()),
                ProfileEntry(0.10, Truncate()),
            ),
        ),
        FaultProfile(
            name="brownout",
            description="Mid-handshake server crashes and long dark windows.",
            entries=(
                ProfileEntry(0.15, Crash()),
                ProfileEntry(0.20, Flap(up_seconds=2.0, down_seconds=4.0)),
            ),
        ),
    )
}


def get_profile(name: str) -> FaultProfile:
    """Look up a profile by name; raises with the catalogue on miss."""
    try:
        return PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown fault profile {name!r}; available: {', '.join(sorted(PROFILES))}"
        ) from None


def _selected(seed: int, profile: FaultProfile, index: int, address: Address) -> bool:
    entry = profile.entries[index]
    score = derive_seed(seed, profile.name, index, str(address)) % 1_000_000
    return score < entry.fraction * 1_000_000


def profile_selected(config, address: Address) -> bool:
    """Whether :func:`configure_world` faults ``address`` under ``config``.

    Recomputes the exact selection hash, with the same seed derivation
    (:func:`_fault_seed`) — the longitudinal delta differ uses it to
    force fault-afflicted hosts onto the rescan path (their records
    depend on fault state, not just on the deployment's week-over-week
    world signature).  False when ``config`` has no fault profile.
    """
    if not config.fault_profile:
        return False
    profile = get_profile(config.fault_profile)
    seed = _fault_seed(config, profile)
    return any(
        _selected(seed, profile, index, address)
        for index in range(len(profile.entries))
    )


def _selection(
    addresses: Iterable[Address], profile: FaultProfile, seed: int
) -> Tuple[Dict[str, int], List[Tuple[Address, Tuple[FaultSpec, ...]]]]:
    """Per-fault-kind host counts, and each selected host with its specs."""
    counts = {entry.spec.kind: 0 for entry in profile.entries}
    selected = []
    for address in addresses:
        specs = tuple(
            entry.spec
            for index, entry in enumerate(profile.entries)
            if _selected(seed, profile, index, address)
        )
        for spec in specs:
            counts[spec.kind] += 1
        if specs:
            selected.append((address, specs))
    return counts, selected


def apply_profile(
    network,
    addresses: Iterable[Address],
    profile: FaultProfile,
    seed: int,
) -> Dict[str, int]:
    """Attach a profile's fault specs to hosts on ``network``.

    Host selection hashes ``(seed, profile, entry index, address)`` so
    the assignment is a pure function of the campaign fault seed —
    independent of iteration order and identical in every worker
    replica.  Returns per-fault-kind host counts.
    """
    network.configure_faults(seed)
    counts, selected = _selection(addresses, profile, seed)
    for address, specs in selected:
        base = network.conditions_for(address)
        network.set_conditions(
            address, dataclasses.replace(base, faults=base.faults + specs)
        )
    return counts


def profile_counts(
    addresses: Iterable[Address],
    profile: FaultProfile,
    seed: int,
) -> Dict[str, int]:
    """Per-fault-kind host counts of :func:`apply_profile`, without applying.

    Both run the same selection, so the result equals what
    :func:`apply_profile` returns for the same arguments.  A campaign
    gauges ``faults.hosts`` from it (:func:`profile_gauges`) whether it
    configured its world or was given one another configuration uses.
    """
    return _selection(addresses, profile, seed)[0]


# -- configurations --------------------------------------------------------------


def _fault_seed(config, profile: FaultProfile) -> int:
    return derive_seed("faults", config.seed, profile.name)


def configure_world(world, config) -> None:
    """Put ``world`` into the state ``config``'s own build has.

    The one route by which a world reaches a configuration's state:
    the network restores its build-time conditions, then gets
    ``config``'s fault and path profiles with seeds derived from the
    campaign seed and the profile alone.  Idempotent per
    ``(seed, fault_profile, path_profile)``, so re-configuring a world
    already in that state is one comparison.
    """
    network = world.network

    def install() -> None:
        if config.fault_profile or config.path_profile:
            addresses = [deployment.address for deployment in world.deployments]
        if config.fault_profile:
            profile = get_profile(config.fault_profile)
            apply_profile(network, addresses, profile, _fault_seed(config, profile))
        if config.path_profile:
            spec = paths.parse_path_spec(config.path_profile)
            paths.apply_path_profile(
                network, addresses, spec, derive_seed("paths", config.seed, spec.canonical())
            )

    network.configure((config.seed, config.fault_profile, config.path_profile), install)


def profile_gauges(world, config) -> List[Tuple[str, Dict[str, str], int]]:
    """``(gauge, labels, hosts)`` for the hosts ``config``'s profiles touch.

    A pure count over ``world``'s deployments: what
    :func:`configure_world` installs, counted without touching the
    world.  Path profiles shape every host (see
    :func:`~repro.netsim.paths.apply_path_profile`).
    """
    gauges: List[Tuple[str, Dict[str, str], int]] = []
    if config.fault_profile:
        profile = get_profile(config.fault_profile)
        addresses = [deployment.address for deployment in world.deployments]
        counts = profile_counts(addresses, profile, _fault_seed(config, profile))
        gauges.extend(("faults.hosts", {"fault": kind}, counts[kind]) for kind in sorted(counts))
    if config.path_profile:
        name = paths.parse_path_spec(config.path_profile).name
        gauges.append(("paths.hosts", {"profile": name}, len(world.deployments)))
    return gauges


# -- service-granularity faults ------------------------------------------------
#
# The faults above afflict simulated *hosts*; the longitudinal
# measurement service also has to survive faults in the measurement
# process itself — a SIGKILL mid-week, a hung scan, a transient crash.
# A service fault is armed through the environment
# (``REPRO_SERVICE_FAULT=kill@mid-week:7``) so it propagates to
# watchdog child processes and — crucially for crash/resume tests —
# vanishes when the operator restarts the service with ``--resume``.

SERVICE_FAULT_ENV = "REPRO_SERVICE_FAULT"

# Injection points the longitudinal scheduler/loader consult, in the
# order they occur within one week's processing.
SERVICE_FAULT_POINTS = ("week-start", "mid-week", "mid-load", "after-commit")

_SERVICE_FAULT_KINDS = ("kill", "hang", "fail")
_HANG_SECONDS = 3600.0


class ServiceFaultError(RuntimeError):
    """Raised by a ``fail``-kind service fault (a transient crash the
    week-level retry policy is expected to absorb)."""


@dataclass(frozen=True)
class ServiceFault:
    """A parsed service-fault spec: ``<kind>@<point>:<week>``.

    ``kill`` SIGKILLs the process (no cleanup, no commit — the crash
    the run ledger must survive); ``hang`` sleeps far past any
    reasonable watchdog deadline; ``fail`` raises
    :class:`ServiceFaultError` on every attempt, exhausting the week's
    retries.
    """

    kind: str
    point: str
    week: int

    def matches(self, point: str, week: int) -> bool:
        return self.point == point and self.week == week

    def trigger(self) -> None:
        import os
        import signal
        import time

        if self.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif self.kind == "hang":
            time.sleep(_HANG_SECONDS)
        else:
            raise ServiceFaultError(
                f"injected service fault at {self.point} of week {self.week}"
            )


def parse_service_fault(text: str) -> ServiceFault:
    """Parse ``kill@mid-week:7`` style specs (raises ValueError)."""
    try:
        kind, rest = text.split("@", 1)
        point, week_text = rest.rsplit(":", 1)
        week = int(week_text)
    except ValueError:
        raise ValueError(
            f"malformed service fault {text!r}; expected <kind>@<point>:<week>"
        ) from None
    if kind not in _SERVICE_FAULT_KINDS:
        raise ValueError(
            f"unknown service fault kind {kind!r};"
            f" expected one of {', '.join(_SERVICE_FAULT_KINDS)}"
        )
    if point not in SERVICE_FAULT_POINTS:
        raise ValueError(
            f"unknown service fault point {point!r};"
            f" expected one of {', '.join(SERVICE_FAULT_POINTS)}"
        )
    return ServiceFault(kind=kind, point=point, week=week)


def maybe_inject_service_fault(point: str, week: int) -> None:
    """Fire the armed service fault if it matches ``(point, week)``.

    Reads :data:`SERVICE_FAULT_ENV` on every call so child processes
    inherit the arming and a ``--resume`` restart without the variable
    runs clean.
    """
    import os

    text = os.environ.get(SERVICE_FAULT_ENV)
    if not text:
        return
    fault = parse_service_fault(text)
    if fault.matches(point, week):
        fault.trigger()
