"""Span recording at the layer boundaries, from outside the program.

The traced run wraps the public callables where one package under
``src/repro/`` calls into another (see :data:`BOUNDARIES`) with span
recorders, runs one iteration of the workload, and removes the wrappers
again.  Nothing under ``src/`` knows about it, and the timed runs never
import this module.

A span is (name, layer, start, end, parent); all spans of one traced
iteration share its trace id.  A layer's *self time* is its spans'
duration minus the part their child spans cover, so the layers' self
times plus the harness's own add up to the traced wall time.

Two limits, both by design:

- spans are recorded on the installing thread of the parent process
  only.  Pool workers are other processes and fleet scan threads are
  other threads; their time shows as ``parallel`` self time (the parent
  waiting), which is what an operator watching the parent sees.
- a module-level function is patched in every ``repro.*`` namespace
  that holds it (``from x import y`` copies the reference).  References
  captured elsewhere — a dict of handlers, a default argument — keep
  the original; those paths are left to the microbenchmarks.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Tuple

HARNESS = "harness"

# (layer, module, class or None, attribute names).
BOUNDARIES: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("crypto", "repro.crypto.aead", "AeadAes128Gcm", ("seal", "open")),
    ("crypto", "repro.crypto.aead", "AeadSim", ("seal", "open")),
    ("crypto", "repro.crypto.aead", None, ("header_mask_aes", "header_mask_sim")),
    ("crypto", "repro.crypto.x25519", None, ("x25519", "x25519_base")),
    ("crypto", "repro.crypto.hkdf", None, ("hkdf_expand_label", "hkdf_extract")),
    ("crypto", "repro.crypto.rsa", "RsaPrivateKey", ("sign",)),
    ("crypto", "repro.crypto.rsa", "RsaPublicKey", ("verify",)),
    ("quic", "repro.quic.connection", "QuicClientConnection", ("connect",)),
    ("quic", "repro.quic.connection", "QuicServerEndpoint", ("datagram_received",)),
    ("quic", "repro.quic.protection", None, ("protect_long", "protect_short", "unprotect")),
    ("quic", "repro.quic.initial_aead", None, ("derive_initial_keys",)),
    ("quic", "repro.quic.frames", None, ("encode_frames", "decode_frames")),
    ("quic", "repro.quic.transport_params", "TransportParameters", ("encode", "decode")),
    (
        "tls",
        "repro.tls.engine",
        "TlsClientSession",
        ("client_hello", "process_server_hello", "process_server_flight", "process_post_handshake"),
    ),
    (
        "tls",
        "repro.tls.engine",
        "TlsServerSession",
        ("process_client_hello", "process_client_finished", "issue_ticket"),
    ),
    (
        "tls",
        "repro.tls.record",
        "RecordLayer",
        ("wrap_handshake", "wrap_application_data", "wrap_alert", "unwrap"),
    ),
    ("tls", "repro.tls.certificates", None, ("verify_chain",)),
    ("dns", "repro.dns.resolver", "Resolver", ("resolve",)),
    ("http", "repro.http.h1", "HttpRequest", ("encode", "decode")),
    ("http", "repro.http.h1", "HttpResponse", ("encode", "decode")),
    ("http", "repro.http.altsvc", None, ("parse_alt_svc", "format_alt_svc")),
    (
        "http",
        "repro.http.h3",
        None,
        ("encode_head_request", "decode_request", "encode_response", "decode_response"),
    ),
    (
        "netsim",
        "repro.netsim.topology",
        "Network",
        ("deliver_datagram", "syn_probe", "connect_tcp", "begin_fault_epoch"),
    ),
    ("netsim", "repro.netsim.topology", "TcpSession", ("send", "receive", "reply")),
    ("netsim", "repro.netsim.paths", None, ("apply_path_profile",)),
    ("netsim", "repro.netsim.faults", None, ("apply_profile",)),
    (
        "server",
        "repro.server.tcp443",
        "Tcp443Server",
        ("session_opened", "data_received", "session_closed"),
    ),
    ("internet", "repro.internet.generator", None, ("build_world",)),
    ("scanners", "repro.scanners.qscanner", "QScanner", ("scan",)),
    ("scanners", "repro.scanners.goscanner", "Goscanner", ("scan",)),
    (
        "scanners",
        "repro.scanners.zmapquic",
        "ZmapQuicScanner",
        (
            "scan_ipv4_space",
            "scan_ipv4_space_shard",
            "scan_ipv4_range",
            "scan_targets",
            "scan_targets_shard",
        ),
    ),
    (
        "scanners",
        "repro.scanners.zmaptcp",
        "ZmapTcpScanner",
        (
            "scan_ipv4_space",
            "scan_ipv4_space_shard",
            "scan_ipv4_range",
            "scan_targets",
            "scan_targets_shard",
        ),
    ),
    ("scanners", "repro.scanners.dnsscan", "DnsScanner", ("scan_lists",)),
    ("parallel", "repro.parallel.engine", "ScanEngine", ("run_stage",)),
    ("parallel", "repro.parallel.stream", "StreamEngine", ("run",)),
    ("parallel", "repro.parallel.fleet", "FleetScheduler", ("execute", "close")),
    (
        "experiments",
        "repro.experiments.campaign",
        "Campaign",
        ("run_all_stages", "compute_stage_shard"),
    ),
    ("experiments", "repro.experiments.stage_cache", "CampaignStageCache", ("load", "store")),
    ("experiments", "repro.experiments.matrix", None, ("run_matrix",)),
    (
        "experiments",
        "repro.experiments.tables",
        None,
        ("table1", "table2", "table3", "table4", "table5", "table6"),
    ),
    ("warehouse", "repro.warehouse.schema", None, ("connect", "ensure_schema")),
    ("warehouse", "repro.warehouse.loader", None, ("load_campaign",)),
    ("warehouse", "repro.warehouse.qa", None, ("run_qa", "run_matrix_qa")),
    ("warehouse", "repro.warehouse.marts", None, ("build_marts",)),
    ("warehouse", "repro.warehouse.queries", None, ("named_report",)),
    ("warehouse", "repro.warehouse.timeline", None, ("append_week_timelines",)),
    ("longitudinal", "repro.longitudinal.scheduler", "LongitudinalScheduler", ("run",)),
    ("longitudinal", "repro.longitudinal.delta", None, ("world_signature", "build_week_campaign")),
    ("longitudinal", "repro.longitudinal.delta", "PreviousWeek", ("signature", "stage_records")),
    (
        "longitudinal",
        "repro.longitudinal.ledger",
        "RunLedger",
        ("ensure", "mark_running", "record_complete", "finish"),
    ),
    ("observability", "repro.observability.metrics", "MetricsRegistry", ("snapshot", "merge_snapshot")),
    (
        "observability",
        "repro.observability.report",
        None,
        ("render_metrics_json", "write_metrics_json"),
    ),
)


class SpanRecorder:
    """In-memory span store; one instance per traced iteration."""

    def __init__(self, trace_id: str = "trace"):
        self.trace_id = trace_id
        self.labels: List[Tuple[str, str]] = []  # label id -> (name, layer)
        self._label_ids: Dict[Tuple[str, str], int] = {}
        # Parallel arrays, one entry per span: compact enough for the
        # ~10^6 spans a traced campaign produces.
        self.label_of = array("i")
        self.parent_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = []
        self._owner = threading.get_ident()

    def label(self, name: str, layer: str) -> int:
        key = (name, layer)
        label_id = self._label_ids.get(key)
        if label_id is None:
            label_id = self._label_ids[key] = len(self.labels)
            self.labels.append(key)
        return label_id

    def begin(self, label_id: int) -> int:
        index = len(self.starts)
        self.label_of.append(label_id)
        self.parent_of.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def record(self, name: str, layer: str, start: float, end: float, parent: int = -1) -> int:
        """Append a finished span directly (used by the selftests)."""
        index = len(self.starts)
        self.label_of.append(self.label(name, layer))
        self.parent_of.append(parent)
        self.starts.append(start)
        self.ends.append(end)
        return index

    def wrap(self, func: Callable, name: str, layer: str) -> Callable:
        label_id = self.label(name, layer)
        begin, end, owner = self.begin, self.end, self._owner
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if get_ident() != owner:
                return func(*args, **kwargs)
            index = begin(label_id)
            try:
                return func(*args, **kwargs)
            finally:
                end(index)

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def __len__(self) -> int:
        return len(self.starts)

    # -- analysis -------------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per span: duration minus the part its children cover."""
        count = len(self.starts)
        children: Dict[int, List[Tuple[float, float]]] = {}
        for index in range(count):
            parent = self.parent_of[index]
            if parent >= 0:
                children.setdefault(parent, []).append(
                    (self.starts[index], self.ends[index])
                )
        result = []
        for index in range(count):
            start, end = self.starts[index], self.ends[index]
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(index, ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            result.append((end - start) - covered)
        return result

    def layer_ledger(self) -> Dict[str, Dict[str, float]]:
        """layer -> {"self_s", "calls"} over every recorded span."""
        ledger: Dict[str, Dict[str, float]] = {}
        for index, self_time in enumerate(self.self_times()):
            _name, layer = self.labels[self.label_of[index]]
            entry = ledger.setdefault(layer, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += self_time
            entry["calls"] += 1
        return ledger

    def chrome_trace(self) -> Dict[str, object]:
        """The spans as a Chrome ``trace_event`` document (about:tracing)."""
        events = []
        origin = self.starts[0] if len(self.starts) else 0.0
        for index in range(len(self.starts)):
            name, layer = self.labels[self.label_of[index]]
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": (self.starts[index] - origin) * 1e6,
                    "dur": (self.ends[index] - self.starts[index]) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": {"trace_id": self.trace_id, "parent": self.parent_of[index]},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w") as stream:
            json.dump(self.chrome_trace(), stream)


class Patches:
    """Installed wrappers, remembered so they can be put back exactly."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attribute: str, value: object) -> None:
        original = (
            owner.__dict__[attribute]
            if isinstance(owner, type)
            else getattr(owner, attribute)
        )
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, value)

    def restore(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def __len__(self) -> int:
        return len(self._undo)


def _repro_namespaces() -> Iterable[object]:
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            yield module


def _wrap_descriptor(raw: object, recorder: SpanRecorder, name: str, layer: str) -> object:
    """Wrap a class attribute, keeping static/class method binding."""
    if isinstance(raw, staticmethod):
        return staticmethod(recorder.wrap(raw.__func__, name, layer))
    if isinstance(raw, classmethod):
        return classmethod(recorder.wrap(raw.__func__, name, layer))
    return recorder.wrap(raw, name, layer)


def install(recorder: SpanRecorder) -> Patches:
    """Wrap every boundary callable; returns the patches to restore."""
    patches = Patches()
    try:
        for layer, module_name, class_name, attributes in BOUNDARIES:
            module = importlib.import_module(module_name)
            for attribute in attributes:
                if class_name is not None:
                    owner = getattr(module, class_name)
                    raw = owner.__dict__[attribute]
                    label = f"{class_name}.{attribute}"
                    patches.set(
                        owner, attribute, _wrap_descriptor(raw, recorder, label, layer)
                    )
                    continue
                original = getattr(module, attribute)
                wrapper = recorder.wrap(original, attribute, layer)
                for namespace in _repro_namespaces():
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            patches.set(namespace, key, wrapper)
    except BaseException:
        patches.restore()
        raise
    return patches


def traced_call(recorder: SpanRecorder, func: Callable, name: str = "iteration"):
    """Run ``func`` under a harness root span; returns its result."""
    index = recorder.begin(recorder.label(name, HARNESS))
    try:
        return func()
    finally:
        recorder.end(index)
