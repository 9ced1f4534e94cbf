"""A reference for the ``stg_dns`` load: one row tuple per listed name.

The loader stages a list as JSON chunks that sqlite expands with
``json_each`` (:func:`repro.warehouse.loader._insert_dns`).  This is the
row builder it replaced, with every cell encoded by ``json.dumps``: the
differential in ``tests/test_stg_dns_bulk.py`` inserts these rows with
``executemany`` and compares every column, its ``typeof`` and the
insertion order against the bulk path.
"""

import json

from repro.experiments.stages import DNS_RECORDS

__all__ = ["dns_rows", "insert_dns_rows"]


def _addresses(found):
    return json.dumps([str(address) for address in found])


def dns_rows(campaign, campaign_id):
    """Every listed name's ``stg_dns`` row, in list order."""
    position = 0
    for records in campaign.dns_records.values():
        for index, domain in enumerate(records.names):
            record = records.answered.get(index)
            lists, has_https_rr = ("[]",) * 5, 0
            if record is not None:
                answers = (record.a, record.aaaa, record.https_ipv4hints, record.https_ipv6hints)
                if record.https_alpn or any(answers):
                    a, aaaa, v4hints, v6hints = (_addresses(found) for found in answers)
                    lists = (a, aaaa, json.dumps(list(record.https_alpn)), v4hints, v6hints)
                has_https_rr = int(record.has_https_rr)
            row = (campaign_id, DNS_RECORDS, position, domain, records.source_list)
            yield (*row, *lists, has_https_rr)
            position += 1


def insert_dns_rows(conn, campaign, campaign_id):
    """Insert :func:`dns_rows` one row per statement; returns the count."""
    return conn.executemany(
        "INSERT INTO stg_dns VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
        dns_rows(campaign, campaign_id),
    ).rowcount
