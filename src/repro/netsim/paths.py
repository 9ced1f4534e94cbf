"""Named, composable path-condition profiles for the netsim.

The paper measured one ambient Internet path regime; QUIC deployment
behaviour is known to shift sharply with path conditions (satellite
links with ~600 ms RTT and high BDP, lossy edges, bufferbloated access
links).  This module extends :class:`~repro.netsim.topology.NetworkConditions`
with bandwidth and queueing semantics so ``repro matrix`` can sweep a
campaign over a datarate x latency grid:

- a :class:`PathSpec` attaches per-host, per-direction **token-bucket
  rate limiting** with a bounded **drop-tail queue** (modelled as
  tokens allowed to go negative down to ``-queue`` bytes; the backlog
  ``max(0, -tokens)`` divided by the rate is the queueing delay each
  datagram experiences — bufferbloat's latency growth falls out of
  this for free),
- an optional deterministic stochastic **loss** fraction drawn from a
  per-host, epoch-scoped RNG (the network holds no RNG of its own, so
  sharded runs replay serial decisions byte for byte),
- an optional **RTT override** applied when the profile is installed.

Determinism contract (mirrors :mod:`repro.netsim.faults`): shaping
state is instantiated lazily per host inside the current stage epoch,
seeded from ``(path seed, epoch, host address)``, and anchors its
token-bucket clock to the host's *own first event* in the epoch — so a
host's shaping decisions depend only on its own traffic, which is what
makes ``--workers N`` runs byte-identical to serial runs for every
profile (shard boundaries never split one host's traffic).

``parse_path_spec`` accepts a named profile (``geo-satellite``), a
``rate=2mbps,rtt=600ms`` override string, or a profile name followed
by overrides (``geo-satellite,rtt=800ms``); it raises
:class:`PathSpecError` on anything else and is registered as a
conformance-fuzzer entry point (see :mod:`repro.conformance.fuzzer`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = [
    "PATH_PROFILES",
    "PathSpec",
    "PathSpecError",
    "apply_path_profile",
    "get_path_profile",
    "parse_path_spec",
]


class PathSpecError(ValueError):
    """A path-profile spec string failed to parse or validate."""


@dataclass(frozen=True)
class PathSpec:
    """Immutable path-shaping parameters for one host's access link.

    Rates are **bytes per second** internally; the spec grammar speaks
    bits per second (``2mbps``) like link datasheets do.  ``rate`` sets
    both directions unless ``up_rate``/``down_rate`` override it.  A
    spec with no rate and no loss shapes nothing (the ``baseline``
    profile); an ``rtt`` override alone still applies at install time.
    """

    # Display name; excluded from equality so parse(canonical()) round-
    # trips custom specs without carrying a label along.
    name: str = field(default="custom", compare=False)
    rtt: Optional[float] = None  # seconds; overrides NetworkConditions.rtt
    rate: Optional[float] = None  # bytes/s, both directions
    up_rate: Optional[float] = None  # bytes/s, scanner -> server
    down_rate: Optional[float] = None  # bytes/s, server -> scanner
    burst: int = 9000  # token-bucket depth, bytes
    queue: int = 36000  # drop-tail queue bound, bytes
    loss: float = 0.0  # per-datagram loss probability, either direction

    @property
    def shapes(self) -> bool:
        """Whether delivery needs per-host shaping state at all."""
        return bool(
            self.rate is not None
            or self.up_rate is not None
            or self.down_rate is not None
            or self.loss
        )

    def resolved_rate(self, direction: str) -> Optional[float]:
        override = self.up_rate if direction == "up" else self.down_rate
        return override if override is not None else self.rate

    def instantiate(self, rng) -> "PathState":
        return PathState(self, rng)

    def canonical(self) -> str:
        """Canonical spec string: ``parse_path_spec(spec.canonical()) == spec``."""
        parts: List[str] = []
        if self.rate is not None:
            parts.append(f"rate={self.rate * 8!r}bps")
        if self.up_rate is not None:
            parts.append(f"up={self.up_rate * 8!r}bps")
        if self.down_rate is not None:
            parts.append(f"down={self.down_rate * 8!r}bps")
        if self.rtt is not None:
            parts.append(f"rtt={self.rtt!r}s")
        if self.loss:
            parts.append(f"loss={self.loss!r}")
        if self.burst != 9000:
            parts.append(f"burst={self.burst}")
        if self.queue != 36000:
            parts.append(f"queue={self.queue}")
        if not parts:
            return "baseline"
        return ",".join(parts)


class _Bucket:
    """One direction's token bucket with a virtual drop-tail queue.

    Tokens refill at ``rate`` bytes/s and cap at ``burst``; admitting a
    datagram spends its size.  Tokens may go negative down to
    ``-queue`` (the backlog standing in the queue); beyond that the
    datagram is tail-dropped.  The queueing delay of an admitted
    datagram is ``backlog / rate`` — a saturated bucket therefore
    exhibits monotonically growing delay until the queue bound bites.
    """

    __slots__ = ("rate", "burst", "queue", "tokens", "last")

    def __init__(self, rate: Optional[float], burst: int, queue: int):
        self.rate = rate
        self.burst = float(burst)
        self.queue = float(queue)
        self.tokens = float(burst)
        self.last = 0.0

    @property
    def backlog(self) -> float:
        return max(0.0, -self.tokens)

    def admit(self, local: float, size: int) -> Optional[float]:
        """Queueing delay in seconds, or ``None`` when tail-dropped."""
        if self.rate is None:
            return 0.0
        if local > self.last:
            self.tokens = min(self.burst, self.tokens + (local - self.last) * self.rate)
            self.last = local
        if self.tokens - size < -self.queue:
            return None
        self.tokens -= size
        return self.backlog / self.rate


class PathState:
    """Per-host shaping state, scoped to one stage epoch.

    Like :class:`~repro.netsim.faults.HostFault`, the clock anchors to
    the host's first event in the epoch (``local_time``), so decisions
    depend only on the host's own traffic and replay identically under
    sharding.
    """

    def __init__(self, spec: PathSpec, rng):
        self.spec = spec
        self._rng = rng
        self._t0: Optional[float] = None
        self._up = _Bucket(spec.resolved_rate("up"), spec.burst, spec.queue)
        self._down = _Bucket(spec.resolved_rate("down"), spec.burst, spec.queue)

    def local_time(self, now: float) -> float:
        if self._t0 is None:
            self._t0 = now
        return now - self._t0

    def _lossy(self) -> bool:
        return bool(self.spec.loss) and self._rng.random() < self.spec.loss

    def admit(self, now: float, size: int, direction: str) -> Optional[float]:
        """Shape one datagram: loss draw, then the direction's bucket.

        Returns the queueing delay in seconds, or ``None`` when the
        datagram is lost (stochastic loss or tail drop).
        """
        if self._lossy():
            return None
        bucket = self._up if direction == "up" else self._down
        return bucket.admit(self.local_time(now), size)

    def admit_segment(self, now: float, size: int, direction: str) -> Optional[float]:
        """Shape a TCP segment: capacity only, no stochastic loss.

        TCP retransmits mask random loss at the session level the
        netsim models, so TCP traffic pays for bandwidth (tail drops
        included) but not for the ``loss`` fraction.
        """
        bucket = self._up if direction == "up" else self._down
        return bucket.admit(self.local_time(now), size)


# -- catalogue -----------------------------------------------------------------

def _mbps(value: float) -> float:
    """Megabits/s -> bytes/s."""
    return value * 1_000_000 / 8


PATH_PROFILES: Dict[str, PathSpec] = {
    # Ambient paths, exactly as the paper measured them: no shaping.
    "baseline": PathSpec(name="baseline"),
    # GEO satellite: ~600 ms RTT, 2 Mbit/s, modest queue (high BDP
    # regime of the QUIC-on-the-highway / QUICOPTSAT sweeps).
    "geo-satellite": PathSpec(name="geo-satellite", rtt=0.6, rate=_mbps(2)),
    # Lossy edge: decent rate, 15 % stochastic datagram loss.
    "lossy-edge": PathSpec(name="lossy-edge", rtt=0.08, rate=_mbps(10), loss=0.15),
    # Bufferbloat: slow link behind an oversized queue — latency grows
    # with standing backlog (up to queue/rate = 2.4 s here).
    "bufferbloat": PathSpec(
        name="bufferbloat", rtt=0.04, rate=_mbps(1), queue=300_000
    ),
    # Asymmetric access: 0.5 Mbit/s up, 10 Mbit/s down.
    "asymmetric": PathSpec(
        name="asymmetric", up_rate=_mbps(0.5), down_rate=_mbps(10)
    ),
}


def get_path_profile(name: str) -> PathSpec:
    try:
        return PATH_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PATH_PROFILES))
        raise ValueError(f"unknown path profile {name!r} (known: {known})") from None


# -- spec grammar --------------------------------------------------------------

_RATE_UNITS = {"bps": 1.0, "kbps": 1_000.0, "mbps": 1_000_000.0, "gbps": 1_000_000_000.0}
_SIZE_UNITS = {"b": 1.0, "kb": 1_000.0, "mb": 1_000_000.0}


def _parse_float(text: str, key: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise PathSpecError(f"{key}: not a number: {text!r}") from None
    if not math.isfinite(value):
        raise PathSpecError(f"{key}: must be finite, got {text!r}")
    return value


def _parse_rate(text: str, key: str) -> float:
    """A link rate with a bits-per-second unit -> bytes/s."""
    lowered = text.strip().lower()
    for unit in ("gbps", "mbps", "kbps", "bps"):
        if lowered.endswith(unit):
            bits = _parse_float(lowered[: -len(unit)], key) * _RATE_UNITS[unit]
            break
    else:
        bits = _parse_float(lowered, key)  # bare number: bits/s
    if bits <= 0:
        raise PathSpecError(f"{key}: rate must be positive, got {text!r}")
    return bits / 8


def _parse_seconds(text: str, key: str) -> float:
    lowered = text.strip().lower()
    if lowered.endswith("ms"):
        value = _parse_float(lowered[:-2], key) / 1000.0
    elif lowered.endswith("s"):
        value = _parse_float(lowered[:-1], key)
    else:
        value = _parse_float(lowered, key)  # bare number: seconds
    if value < 0:
        raise PathSpecError(f"{key}: must be non-negative, got {text!r}")
    return value


def _parse_loss(text: str, key: str) -> float:
    lowered = text.strip()
    if lowered.endswith("%"):
        value = _parse_float(lowered[:-1], key) / 100.0
    else:
        value = _parse_float(lowered, key)
    if not 0.0 <= value <= 1.0:
        raise PathSpecError(f"{key}: loss must be within [0, 1], got {text!r}")
    return value


def _parse_bytes(text: str, key: str) -> int:
    lowered = text.strip().lower()
    for unit in ("kb", "mb", "b"):
        if lowered.endswith(unit):
            value = _parse_float(lowered[: -len(unit)], key) * _SIZE_UNITS[unit]
            break
    else:
        value = _parse_float(lowered, key)
    if value <= 0:
        raise PathSpecError(f"{key}: must be positive, got {text!r}")
    return int(value)


def parse_path_spec(text: str) -> PathSpec:
    """Parse a profile name and/or ``key=value`` overrides into a spec.

    Grammar: comma-separated tokens.  The first token may be a named
    profile from :data:`PATH_PROFILES`; every other token must be
    ``key=value`` with key one of ``rate``/``up``/``down`` (bits/s,
    units ``bps``/``kbps``/``mbps``/``gbps``), ``rtt`` (``ms``/``s``),
    ``loss`` (fraction or ``%``), ``burst``/``queue`` (bytes, units
    ``b``/``kb``/``mb``).  Raises :class:`PathSpecError` otherwise.
    """
    if not isinstance(text, str) or not text.strip():
        raise PathSpecError("empty path spec")
    tokens = [token.strip() for token in text.strip().split(",")]
    spec = PathSpec()
    for position, token in enumerate(tokens):
        if not token:
            raise PathSpecError(f"empty token in path spec: {text!r}")
        if "=" not in token:
            if position != 0:
                raise PathSpecError(
                    f"profile name {token!r} must come first in {text!r}"
                )
            if token not in PATH_PROFILES:
                known = ", ".join(sorted(PATH_PROFILES))
                raise PathSpecError(
                    f"unknown path profile {token!r} (known: {known})"
                )
            spec = PATH_PROFILES[token]
            continue
        key, _, value = token.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not value:
            raise PathSpecError(f"{key}: missing value in {text!r}")
        if key == "rate":
            spec = dataclasses.replace(spec, rate=_parse_rate(value, key))
        elif key == "up":
            spec = dataclasses.replace(spec, up_rate=_parse_rate(value, key))
        elif key == "down":
            spec = dataclasses.replace(spec, down_rate=_parse_rate(value, key))
        elif key == "rtt":
            spec = dataclasses.replace(spec, rtt=_parse_seconds(value, key))
        elif key == "loss":
            spec = dataclasses.replace(spec, loss=_parse_loss(value, key))
        elif key == "burst":
            spec = dataclasses.replace(spec, burst=_parse_bytes(value, key))
        elif key == "queue":
            spec = dataclasses.replace(spec, queue=_parse_bytes(value, key))
        else:
            raise PathSpecError(f"unknown path spec key {key!r} in {text!r}")
    return spec


# -- installation --------------------------------------------------------------

def apply_path_profile(network, addresses: Iterable, spec: PathSpec, seed: int) -> int:
    """Install ``spec`` on every address; returns the host count.

    Path conditions model the access link, so — unlike chaos fault
    profiles, which select a host fraction — a profile applies to the
    whole population.  Shaping state itself stays lazy and per-epoch
    (:meth:`Network.begin_fault_epoch` clears it); this only rewrites
    the static :class:`NetworkConditions` and seeds the path RNG.
    Composes with fault profiles: ``faults`` tuples are preserved.
    """
    network.configure_paths(seed)
    count = 0
    for address in addresses:
        base = network.conditions_for(address)
        updated = dataclasses.replace(base, path=spec if spec.shapes else None)
        if spec.rtt is not None:
            updated = dataclasses.replace(updated, rtt=spec.rtt)
        network.set_conditions(address, updated)
        count += 1
    return count
