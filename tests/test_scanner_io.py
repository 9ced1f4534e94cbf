"""Scan-record persistence round-trip tests."""

import pytest

from repro.scanners.io import dump_record, write_jsonl

from tests.record_reader import load_record, read_jsonl


def test_zmap_records_roundtrip(tmp_path, tiny_campaign):
    records = tiny_campaign.zmap_v4
    path = tmp_path / "zmap.jsonl"
    assert write_jsonl(records, path) == len(records)
    loaded = read_jsonl(path)
    assert loaded == records


def test_dns_records_roundtrip(tmp_path, tiny_campaign):
    records = tiny_campaign.all_dns_records[:500]
    path = tmp_path / "dns.jsonl"
    write_jsonl(records, path)
    assert read_jsonl(path) == records


def test_goscanner_records_roundtrip(tmp_path, tiny_campaign):
    records = tiny_campaign.goscanner_sni_v4[:100]
    path = tmp_path / "tls.jsonl"
    write_jsonl(records, path)
    loaded = read_jsonl(path)
    assert loaded == records
    with_altsvc = [r for r in loaded if r.alt_svc]
    assert with_altsvc, "expected Alt-Svc entries to survive serialisation"


def test_qscan_records_roundtrip(tmp_path, tiny_campaign):
    records = tiny_campaign.qscan_sni_v4[:100] + tiny_campaign.qscan_nosni_v4[:100]
    path = tmp_path / "qscan.jsonl"
    write_jsonl(records, path)
    loaded = read_jsonl(path)
    assert loaded == records
    # Fingerprints survive as tuples usable for analysis.
    fingerprints = {r.transport_params_fingerprint for r in loaded if r.is_success}
    assert fingerprints


def test_mixed_file(tmp_path, tiny_campaign):
    mixed = (
        tiny_campaign.zmap_v4[:3]
        + tiny_campaign.all_dns_records[:3]
        + tiny_campaign.qscan_nosni_v4[:3]
    )
    path = tmp_path / "mixed.jsonl"
    write_jsonl(mixed, path)
    assert read_jsonl(path) == mixed


def test_unknown_type_rejected():
    with pytest.raises(TypeError):
        dump_record(object())
    with pytest.raises(ValueError):
        load_record({"type": "martian"})


def test_analysis_works_on_loaded_records(tmp_path, tiny_campaign):
    """The analysis pipeline accepts records loaded from disk."""
    from repro.analysis.tparams import server_value_summary

    path = tmp_path / "qscan.jsonl"
    write_jsonl(tiny_campaign.qscan_nosni_v4, path)
    loaded = read_jsonl(path)
    rows = server_value_summary(loaded, tiny_campaign.world.as_registry)
    assert rows
