"""Result persistence: the JSONL writer for all scan records.

The paper publishes its raw scan data alongside the tool set; this
module provides the equivalent for the reproduction — every record
type serialises to one JSON object per line, losslessly (addresses as
strings, enums as values, version lists as hex).  No command reads the
files back; ``tests/record_reader.py`` is the reader that proves the
round trip.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.scanners.results import DnsScanRecord, GoscannerRecord, QScanRecord, ZmapQuicRecord

__all__ = ["write_jsonl", "dump_record"]


def dump_record(record) -> dict:
    """Serialise any scan record to a JSON-compatible dict."""
    if isinstance(record, ZmapQuicRecord):
        return {
            "type": "zmap-quic",
            "address": str(record.address),
            "versions": [f"0x{v:08x}" for v in record.versions],
        }
    if isinstance(record, DnsScanRecord):
        return {
            "type": "dns",
            "domain": record.domain,
            "source_list": record.source_list,
            "a": [str(a) for a in record.a],
            "aaaa": [str(a) for a in record.aaaa],
            "https_alpn": list(record.https_alpn),
            "https_ipv4hints": [str(a) for a in record.https_ipv4hints],
            "https_ipv6hints": [str(a) for a in record.https_ipv6hints],
            "has_https_rr": record.has_https_rr,
        }
    if isinstance(record, GoscannerRecord):
        return {
            "type": "goscanner",
            "address": str(record.address),
            "sni": record.sni,
            "success": record.success,
            "tls_version": record.tls_version,
            "cipher_suite": record.cipher_suite,
            "key_exchange_group": record.key_exchange_group,
            "certificate_fingerprint": record.certificate_fingerprint,
            "certificate_self_signed": record.certificate_self_signed,
            "certificate_subject": record.certificate_subject,
            "server_extensions": list(record.server_extensions),
            "sni_echoed": record.sni_echoed,
            "alpn": record.alpn,
            "http_status": record.http_status,
            "server_header": record.server_header,
            "alt_svc": [
                {"alpn": e.alpn, "host": e.host, "port": e.port, "ma": e.max_age}
                for e in record.alt_svc
            ],
            "error": record.error,
            "attempts": record.attempts,
        }
    if isinstance(record, QScanRecord):
        return {
            "type": "qscan",
            "address": str(record.address),
            "sni": record.sni,
            "source": record.source.value,
            "outcome": record.outcome.value,
            "quic_version": f"0x{record.quic_version:08x}" if record.quic_version else None,
            "error_code": record.error_code,
            "error_reason": record.error_reason,
            "tls_version": record.tls_version,
            "cipher_suite": record.cipher_suite,
            "key_exchange_group": record.key_exchange_group,
            "certificate_fingerprint": record.certificate_fingerprint,
            "certificate_subject": record.certificate_subject,
            "server_extensions": list(record.server_extensions),
            "sni_echoed": record.sni_echoed,
            "alpn": record.alpn,
            "transport_params_fingerprint": _dump_fingerprint(
                record.transport_params_fingerprint
            ),
            "max_udp_payload_size": record.max_udp_payload_size,
            "initial_max_data": record.initial_max_data,
            "http_status": record.http_status,
            "server_header": record.server_header,
            "handshake_rtt": record.handshake_rtt,
            "version_negotiation_seen": record.version_negotiation_seen,
            "retry_seen": record.retry_seen,
            "datagrams_sent": record.datagrams_sent,
            "datagrams_received": record.datagrams_received,
            "attempts": record.attempts,
            "resumption_supported": record.resumption_supported,
            "early_data_supported": record.early_data_supported,
        }
    raise TypeError(f"cannot serialise record {record!r}")


def _dump_fingerprint(fingerprint) -> Optional[list]:
    if fingerprint is None:
        return None
    return [[name, value] for name, value in fingerprint]


def write_jsonl(records: Iterable, path: Union[str, Path]) -> int:
    """Write records to a JSONL file; returns the number written."""
    count = 0
    with open(path, "w") as stream:
        for record in records:
            stream.write(json.dumps(dump_record(record), sort_keys=True))
            stream.write("\n")
            count += 1
    return count
