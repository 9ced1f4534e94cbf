"""The simulated network: endpoints, delivery, virtual time.

The model is synchronous and deterministic.  A client socket sends a
datagram; the network looks up the destination endpoint, applies the
destination's :class:`NetworkConditions` (round-trip time, faults and
path shaping), synchronously invokes the endpoint handler and schedules
any replies into the client's inbox at ``now + rtt``.
``receive(timeout)`` advances the virtual clock — timeouts cost no
wall-clock time, which is what makes campaign-scale scans with the
paper's 34.5 % timeout rate tractable.

TCP is modelled at the session level (connect / ordered byte stream /
close); there is no segment-level simulation because nothing in the
paper's analysis depends on TCP internals beyond the SYN scan and an
ordered stream for TLS.

Conditions come only from profiles: a built world has none, and
:meth:`Network.configure` installs a configuration's fault and path
profiles on a cleared table.  The network holds no RNG of its own, so
no host's fate depends on how many other hosts' packets went before it.

Fault injection: a host's :class:`NetworkConditions` may carry
:class:`~repro.netsim.faults.FaultSpec` templates.  The network
instantiates per-host fault state lazily inside the current *stage
epoch* (:meth:`Network.begin_fault_epoch`) and consults it on every
datagram and TCP operation.  Fault decisions depend only on the fault
seed, the epoch and the host's own traffic — see
:mod:`repro.netsim.faults` for the determinism contract.

Path shaping: conditions may additionally carry a
:class:`~repro.netsim.paths.PathSpec` — token-bucket rate limiting
with a bounded drop-tail queue per host and direction.  Shaping state
follows the same per-host, per-epoch lifecycle as fault state, so the
serial == sharded determinism contract extends to every path profile.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.crypto.rand import DeterministicRandom
from repro.netsim.addresses import Address
from repro.observability.metrics import get_metrics

if TYPE_CHECKING:  # import cycle: faults/paths import nothing from here
    from repro.netsim.faults import FaultSpec
    from repro.netsim.paths import PathSpec, PathState

__all__ = [
    "NetworkConditions",
    "Network",
    "UdpEndpoint",
    "TcpListener",
    "ClientUdpSocket",
    "TcpSession",
    "TrafficStats",
    "SYN_BYTES",
]

# Size a TCP SYN is accounted (and path-shaped) at.
SYN_BYTES = 40


@dataclass(frozen=True)
class NetworkConditions:
    """Per-host path behaviour."""

    rtt: float = 0.05  # seconds
    # Fault templates (see repro.netsim.faults); instantiated per host
    # per stage epoch by the network.  Empty for the baseline paths.
    # Entries are validated at epoch-begin so a stray non-FaultSpec
    # fails loudly before any delivery depends on it.
    faults: Tuple["FaultSpec", ...] = ()
    # Path-shaping template (see repro.netsim.paths); instantiated per
    # host per stage epoch, exactly like faults.  None = unshaped.
    path: Optional["PathSpec"] = None


# What a host without conditions of its own gets.
_DEFAULT_CONDITIONS = NetworkConditions()


@dataclass
class TrafficStats:
    """Aggregate counters, used by the traffic-overhead ablation."""

    datagrams_sent: int = 0
    bytes_sent: int = 0
    datagrams_delivered: int = 0
    syn_sent: int = 0
    faults_injected: int = 0
    path_drops: int = 0  # datagrams/segments lost to path shaping

    def record_send(self, size: int) -> None:
        self.datagrams_sent += 1
        self.bytes_sent += size


class UdpEndpoint:
    """Base class for simulated UDP services.

    Subclasses override :meth:`datagram_received` and call ``reply`` —
    possibly multiple times — for each response datagram.
    """

    def datagram_received(
        self,
        network: "Network",
        source: Tuple[Address, int],
        data: bytes,
        reply: Callable[[bytes], None],
    ) -> None:
        raise NotImplementedError

    def forget(self, source: Tuple[Address, int]) -> None:
        """Drop whatever is kept for ``source``: its socket has closed."""


class TcpListener:
    """Base class for simulated TCP services (session-level)."""

    def session_opened(self, session: "TcpSession") -> None:
        """Called when a client connects; may already send data."""

    def data_received(self, session: "TcpSession", data: bytes) -> None:
        raise NotImplementedError

    def session_closed(self, session: "TcpSession") -> None:
        """Called when the peer closes."""


class ClientUdpSocket:
    """Client-side UDP socket bound to an ephemeral port.

    Per-connection state on the far side lives as long as the socket:
    ``close(*peers)`` unregisters the port and has the endpoints at
    ``peers`` :meth:`~UdpEndpoint.forget` it.  Nothing can reach
    forgotten state — delivery runs the endpoint synchronously inside
    :meth:`send`, and a closed socket sends nothing more.  The socket
    does not track whom it sent to: a connection names its one peer, and
    a sweep, whose probes leave no state behind, names none.
    """

    def __init__(self, network: "Network", address: Address, port: int):
        self._network = network
        self.address = address
        self.port = port
        self.closed = False
        self._inbox: List[Tuple[float, int, Tuple[Address, int], bytes]] = []

    def send(self, destination: Address, port: int, data: bytes) -> None:
        if self.closed:
            raise ConnectionError("send on a closed socket")
        self._network.deliver_datagram(
            (self.address, self.port), (destination, port), data
        )

    def close(self, *peers: Tuple[Address, int]) -> None:
        """Release the port; the endpoints at ``peers`` forget it."""
        if self.closed:
            return
        self.closed = True
        source = (self.address, self.port)
        network = self._network
        del network._client_sockets[source]
        for peer in peers:
            endpoint = network._udp.get(peer)
            if endpoint is not None:
                endpoint.forget(source)

    def receive(
        self, timeout: float
    ) -> Optional[Tuple[Tuple[Address, int], bytes]]:
        """Next datagram within ``timeout`` virtual seconds, else None."""
        deadline = self._network.now + timeout
        if self._inbox and self._inbox[0][0] <= deadline:
            arrival, _seq, source, data = heapq.heappop(self._inbox)
            self._network.advance_to(arrival)
            return source, data
        self._network.advance_to(deadline)
        return None

    def pending(self) -> int:
        return len(self._inbox)

    def _enqueue(self, arrival: float, source: Tuple[Address, int], data: bytes) -> None:
        heapq.heappush(self._inbox, (arrival, self._network.next_seq(), source, data))


class TcpSession:
    """An established TCP connection, client side synchronous."""

    def __init__(
        self,
        network: "Network",
        listener: TcpListener,
        client: Tuple[Address, int],
        server: Tuple[Address, int],
        conditions: NetworkConditions,
    ):
        self._network = network
        self._listener = listener
        self.client_address = client
        self.server_address = server
        self._conditions = conditions
        self._to_client: List[Tuple[float, int, bytes]] = []
        self.closed = False
        self.context: Dict[str, object] = {}  # server-side connection state

    # -- client side ---------------------------------------------------------
    def send(self, data: bytes) -> None:
        if self.closed:
            raise ConnectionError("session closed")
        self._network.stats.record_send(len(data))
        if not self._network.tcp_data_allowed(self.server_address[0]):
            return  # bytes vanish mid-session; the peer never replies
        if self._network.path_segment(self.server_address[0], len(data), "up") is None:
            return  # tail-dropped at the access link
        self._listener.data_received(self, data)

    def receive(self, timeout: float) -> Optional[bytes]:
        deadline = self._network.now + timeout
        if self._to_client and self._to_client[0][0] <= deadline:
            arrival, _seq, data = self._to_client.pop(0)
            self._network.advance_to(arrival)
            return data
        self._network.advance_to(deadline)
        if self.closed and not self._to_client:
            return None
        return None

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._listener.session_closed(self)

    # -- server side ----------------------------------------------------------
    def reply(self, data: bytes) -> None:
        if not self._network.tcp_data_allowed(self.server_address[0]):
            return
        delay = self._network.path_segment(self.server_address[0], len(data), "down")
        if delay is None:
            return
        arrival = self._network.now + self._conditions.rtt / 2 + delay
        self._to_client.append((arrival, self._network.next_seq(), data))

    def server_close(self) -> None:
        self.closed = True


class Network:
    """The simulated Internet fabric."""

    def __init__(self, seed: int = 0):
        """``seed`` is accepted and unused: the network draws nothing at
        random, every random decision comes from per-host fault and path
        state.  It stays for the scanbench micro-benchmarks, which pass it."""
        self.now = 0.0
        self.stats = TrafficStats()
        self._udp: Dict[Tuple[Address, int], UdpEndpoint] = {}
        self._tcp: Dict[Tuple[Address, int], TcpListener] = {}
        self._conditions: Dict[Address, NetworkConditions] = {}
        self._ephemeral = itertools.count(49152)
        self._seq = itertools.count()
        self._client_sockets: Dict[Tuple[Address, int], ClientUdpSocket] = {}
        # Fault-injection state: per-host fault instances, scoped to the
        # current stage epoch (see repro.netsim.faults).
        self._fault_seed: int = 0
        self._fault_epoch: str = "root"
        self._fault_states: Dict[Tuple[Address, int], object] = {}
        # Path-shaping state: per-host token buckets, same epoch scope
        # (see repro.netsim.paths).
        self._path_seed: int = 0
        self._path_states: Dict[Address, "PathState"] = {}
        # The configuration key the conditions were last installed for.
        self._configuration: Optional[Tuple] = None

    # -- registration ----------------------------------------------------------
    def bind_udp(self, address: Address, port: int, endpoint: UdpEndpoint) -> None:
        self._udp[(address, port)] = endpoint

    def bind_tcp(self, address: Address, port: int, listener: TcpListener) -> None:
        self._tcp[(address, port)] = listener

    def set_conditions(self, address: Address, conditions: NetworkConditions) -> None:
        self._conditions[address] = conditions

    def conditions_for(self, address: Address) -> NetworkConditions:
        """``address``'s installed conditions, else the default ones.

        A network with none installed (every unconfigured run) answers
        without hashing ``address``: each send, SYN and TCP segment asks.
        """
        conditions = self._conditions
        return conditions.get(address, _DEFAULT_CONDITIONS) if conditions else _DEFAULT_CONDITIONS

    # -- configuration ---------------------------------------------------------
    def configure(self, key: Tuple, install: Callable[[], None]) -> None:
        """Put the network into the configuration ``key`` names; idempotent.

        A key other than the current one clears the conditions (a built
        world has none) and fault and path state, reopens the root epoch
        and runs ``install``, which attaches the configuration's
        profiles.  So a network serving configuration A, then B, then A
        again is in the same state each time it serves A.
        """
        if key == self._configuration:
            return
        self._conditions.clear()
        self._configuration = None
        self.configure_faults(0)
        self.configure_paths(0)
        self._fault_epoch = "root"
        install()
        self._configuration = key

    # -- fault injection -------------------------------------------------------
    def configure_faults(self, seed: int) -> None:
        """Set the fault seed; clears any live per-host fault state."""
        self._fault_seed = seed
        self._fault_states.clear()

    # -- path shaping ----------------------------------------------------------
    def configure_paths(self, seed: int) -> None:
        """Set the path-shaping seed; clears live per-host path state."""
        self._path_seed = seed
        self._path_states.clear()

    def _active_path(
        self, address: Address, conditions: Optional[NetworkConditions] = None
    ) -> Optional["PathState"]:
        if conditions is None:
            conditions = self.conditions_for(address)
        spec = conditions.path
        if spec is None:
            return None
        state = self._path_states.get(address)
        if state is None:
            rng = DeterministicRandom(
                (self._path_seed, self._fault_epoch, str(address), "path")
            )
            state = spec.instantiate(rng)
            self._path_states[address] = state
        return state

    def _path_drop(self, direction: str, transport: str) -> None:
        self.stats.path_drops += 1
        get_metrics().counter(
            "path.dropped", direction=direction, transport=transport
        ).inc()

    def path_segment(self, address: Address, size: int, direction: str) -> Optional[float]:
        """Charge a TCP segment against ``address``'s path shaping.

        Returns the queueing delay in seconds, or ``None`` when the
        segment is tail-dropped (the session sees silence, like
        :meth:`tcp_data_allowed` fault drops).
        """
        state = self._active_path(address)
        if state is None:
            return 0.0
        delay = state.admit_segment(self.now, size, direction)
        if delay is None:
            self._path_drop(direction, "tcp")
        return delay

    def begin_fault_epoch(self, label: str) -> None:
        """Reset per-host fault and path state at a stage boundary.

        Each campaign stage runs in its own epoch, so a host's fault
        behaviour within a stage depends only on its own traffic there —
        the property that makes sharded runs replay serial decisions.
        Condition entries are validated here so a malformed ``faults``
        tuple fails loudly at the stage boundary, not deep in delivery.
        """
        if label != self._fault_epoch:
            self._validate_fault_specs()
            self._fault_epoch = label
            self._fault_states.clear()
            self._path_states.clear()

    def _validate_fault_specs(self) -> None:
        from repro.netsim.faults import FaultSpec

        for address, conditions in self._conditions.items():
            for entry in conditions.faults:
                if not isinstance(entry, FaultSpec):
                    raise TypeError(
                        f"conditions for {address} carry a non-FaultSpec fault "
                        f"entry: {entry!r} ({type(entry).__name__})"
                    )

    def _active_faults(
        self, address: Address, conditions: Optional[NetworkConditions] = None
    ) -> Tuple:
        if conditions is None:
            conditions = self.conditions_for(address)
        if not conditions.faults:
            return ()
        states = []
        for index, spec in enumerate(conditions.faults):
            key = (address, index)
            state = self._fault_states.get(key)
            if state is None:
                rng = DeterministicRandom(
                    (self._fault_seed, self._fault_epoch, str(address), index)
                )
                state = spec.instantiate(rng)
                self._fault_states[key] = state
            states.append(state)
        return tuple(states)

    def _fault_injected(self, kind: str, action: str) -> None:
        self.stats.faults_injected += 1
        get_metrics().counter("faults.injected", fault=kind, action=action).inc()

    def udp_bound(self, address: Address, port: int) -> bool:
        return (address, port) in self._udp

    def udp_bound_values(self, port: int, version: int) -> frozenset:
        """Integer address values with a UDP endpoint on ``port``.

        A sweep-side snapshot: a destination outside this set is dropped
        by :meth:`deliver_datagram` before conditions apply, so stateless
        scanners can skip full delivery for the (overwhelming) unbound
        majority of a space sweep.
        """
        return frozenset(
            address.value
            for address, bound_port in self._udp
            if bound_port == port and address.version == version
        )

    def tcp_bound(self, address: Address, port: int) -> bool:
        return (address, port) in self._tcp

    def syn_live_values(self, port: int, version: int) -> frozenset:
        """Integer address values whose SYN probe does more than count itself.

        :meth:`syn_probe` evaluates conditions *before* the listener
        check, so that is every TCP listener on ``port`` plus every host
        with conditions: any other host has none, so its probe holds no
        fault or path state.
        """
        values = {
            address.value
            for address, bound_port in self._tcp
            if bound_port == port and address.version == version
        }
        values.update(
            address.value for address in self._conditions if address.version == version
        )
        return frozenset(values)

    # -- clock -----------------------------------------------------------------
    def advance_to(self, time: float) -> None:
        if time > self.now:
            self.now = time

    def next_seq(self) -> int:
        return next(self._seq)

    # -- UDP ---------------------------------------------------------------------
    def client_socket(self, address: Address) -> ClientUdpSocket:
        socket = ClientUdpSocket(self, address, next(self._ephemeral))
        self._client_sockets[(address, socket.port)] = socket
        return socket

    def deliver_datagram(
        self,
        source: Tuple[Address, int],
        destination: Tuple[Address, int],
        data: bytes,
    ) -> None:
        self.stats.record_send(len(data))
        endpoint = self._udp.get(destination)
        if endpoint is None:
            return  # no listener: silently dropped, like the Internet
        conditions = self.conditions_for(destination[0])
        faults = self._active_faults(destination[0], conditions)
        for fault in faults:
            verdict, data = fault.on_send(self.now, data)
            if verdict is not None:
                self._fault_injected(fault.kind, verdict)
            if data is None:
                return
        path = self._active_path(destination[0], conditions)
        up_delay = 0.0
        if path is not None:
            admitted = path.admit(self.now, len(data), "up")
            if admitted is None:
                self._path_drop("up", "udp")
                return
            up_delay = admitted
        self.stats.datagrams_delivered += 1
        send_time = self.now

        def reply(response: bytes) -> None:
            for fault in faults:
                verdict, response = fault.on_reply(send_time, response)
                if verdict is not None:
                    self._fault_injected(fault.kind, verdict)
                if response is None:
                    return
            down_delay = 0.0
            if path is not None:
                admitted = path.admit(send_time, len(response), "down")
                if admitted is None:
                    self._path_drop("down", "udp")
                    return
                down_delay = admitted
            client = self._client_sockets.get(source)
            if client is not None:
                client._enqueue(
                    send_time + conditions.rtt + up_delay + down_delay,
                    destination,
                    response,
                )

        endpoint.datagram_received(self, source, data, reply)

    # -- TCP ------------------------------------------------------------------
    def syn_probe(self, destination: Address, port: int) -> bool:
        """ZMap-style TCP SYN probe: is the port open?"""
        self.stats.syn_sent += 1
        self.stats.record_send(SYN_BYTES)
        conditions = self.conditions_for(destination)
        for fault in self._active_faults(destination, conditions):
            if not fault.tcp_syn(self.now):
                self._fault_injected(fault.kind, "syn-drop")
                return False
        path = self._active_path(destination, conditions)
        if path is not None and path.admit_segment(self.now, SYN_BYTES, "up") is None:
            self._path_drop("up", "tcp")
            return False
        return (destination, port) in self._tcp

    def tcp_data_allowed(self, address: Address) -> bool:
        """Whether session data to/from ``address`` gets through faults."""
        for fault in self._active_faults(address):
            if not fault.tcp_data(self.now):
                self._fault_injected(fault.kind, "tcp-drop")
                return False
        return True

    def connect_tcp(
        self, client_address: Address, destination: Address, port: int
    ) -> Optional[TcpSession]:
        listener = self._tcp.get((destination, port))
        if listener is None:
            return None
        conditions = self.conditions_for(destination)
        for fault in self._active_faults(destination, conditions):
            if not fault.tcp_open(self.now):
                self._fault_injected(fault.kind, "connect-refused")
                return None
        path = self._active_path(destination, conditions)
        if path is not None and path.admit_segment(self.now, 40, "up") is None:
            self._path_drop("up", "tcp")
            return None
        session = TcpSession(
            self,
            listener,
            (client_address, next(self._ephemeral)),
            (destination, port),
            conditions,
        )
        self.advance_to(self.now + conditions.rtt)  # three-way handshake
        listener.session_opened(session)
        return session
