"""The reader for :mod:`repro.scanners.io`'s JSONL files.

No command reads raw scan data back, so the reader lives here, as the
reference :func:`repro.scanners.io.write_jsonl` round-trips through
(``tests/test_scanner_io.py``): every field of every record type is
parsed back into the record it was written from.
"""

import json

from repro.http.altsvc import AltSvcEntry
from repro.netsim.addresses import IPv4Address, IPv6Address
from repro.scanners.results import (
    DnsScanRecord,
    GoscannerRecord,
    QScanOutcome,
    QScanRecord,
    TargetSource,
    ZmapQuicRecord,
)

__all__ = ["load_record", "read_jsonl"]


def _parse_address(text):
    if ":" in text:
        return IPv6Address.parse(text)
    return IPv4Address.parse(text)


def _load_fingerprint(data):
    if data is None:
        return None
    return tuple((name, value) for name, value in data)


def load_record(obj: dict):
    """Deserialise a dict produced by :func:`repro.scanners.io.dump_record`."""
    kind = obj.get("type")
    if kind == "zmap-quic":
        return ZmapQuicRecord(
            address=_parse_address(obj["address"]),
            versions=tuple(int(v, 16) for v in obj["versions"]),
        )
    if kind == "dns":
        return DnsScanRecord(
            domain=obj["domain"],
            source_list=obj["source_list"],
            a=tuple(_parse_address(a) for a in obj["a"]),
            aaaa=tuple(_parse_address(a) for a in obj["aaaa"]),
            https_alpn=tuple(obj["https_alpn"]),
            https_ipv4hints=tuple(_parse_address(a) for a in obj["https_ipv4hints"]),
            https_ipv6hints=tuple(_parse_address(a) for a in obj["https_ipv6hints"]),
            has_https_rr=obj["has_https_rr"],
        )
    if kind == "goscanner":
        return GoscannerRecord(
            address=_parse_address(obj["address"]),
            sni=obj["sni"],
            success=obj["success"],
            tls_version=obj["tls_version"],
            cipher_suite=obj["cipher_suite"],
            key_exchange_group=obj["key_exchange_group"],
            certificate_fingerprint=obj["certificate_fingerprint"],
            certificate_self_signed=obj["certificate_self_signed"],
            certificate_subject=obj["certificate_subject"],
            server_extensions=tuple(obj["server_extensions"]),
            sni_echoed=obj["sni_echoed"],
            alpn=obj["alpn"],
            http_status=obj["http_status"],
            server_header=obj["server_header"],
            alt_svc=tuple(
                AltSvcEntry(alpn=e["alpn"], host=e["host"], port=e["port"], max_age=e["ma"])
                for e in obj["alt_svc"]
            ),
            error=obj["error"],
            attempts=obj.get("attempts", 1),
        )
    if kind == "qscan":
        return QScanRecord(
            address=_parse_address(obj["address"]),
            sni=obj["sni"],
            source=TargetSource(obj["source"]),
            outcome=QScanOutcome(obj["outcome"]),
            quic_version=int(obj["quic_version"], 16) if obj["quic_version"] else None,
            error_code=obj["error_code"],
            error_reason=obj["error_reason"],
            tls_version=obj["tls_version"],
            cipher_suite=obj["cipher_suite"],
            key_exchange_group=obj["key_exchange_group"],
            certificate_fingerprint=obj["certificate_fingerprint"],
            certificate_subject=obj["certificate_subject"],
            server_extensions=tuple(obj["server_extensions"]),
            sni_echoed=obj["sni_echoed"],
            alpn=obj["alpn"],
            transport_params_fingerprint=_load_fingerprint(
                obj["transport_params_fingerprint"]
            ),
            max_udp_payload_size=obj["max_udp_payload_size"],
            initial_max_data=obj["initial_max_data"],
            http_status=obj["http_status"],
            server_header=obj["server_header"],
            handshake_rtt=obj["handshake_rtt"],
            version_negotiation_seen=obj["version_negotiation_seen"],
            retry_seen=obj.get("retry_seen", False),
            datagrams_sent=obj.get("datagrams_sent", 0),
            datagrams_received=obj.get("datagrams_received", 0),
            attempts=obj.get("attempts", 1),
            resumption_supported=obj.get("resumption_supported"),
            early_data_supported=obj.get("early_data_supported"),
        )
    raise ValueError(f"unknown record type {kind!r}")


def read_jsonl(path):
    """Read all records from a JSONL file."""
    records = []
    with open(path) as stream:
        for line in stream:
            line = line.strip()
            if line:
                records.append(load_record(json.loads(line)))
    return records
