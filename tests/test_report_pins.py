"""Byte pins for ``repro query``: every named report in every format.

Each report renders from one of the three session warehouses (a loaded
campaign, a three-week longitudinal series, a scenario matrix) by its
scope, in ``table``, ``csv`` and ``json``; the sha256 of the three
renderings together must equal the digest recorded below.  The list
that ``repro query`` prints without a report name is pinned too.  A
change to a report's title, headers, row order or cell values fails
here by name.
"""

import hashlib
import sqlite3

import pytest

from repro.cli import main
from repro.warehouse.queries import MATRIX_REPORTS, REPORTS, RUN_REPORTS, named_report

FORMATS = ("table", "csv", "json")

PINNED = {
    "table1": "29ba2e50003ec49bacf041d23698e64bab1955d31d22f1a348ed448e1ad046e3",
    "table2": "9773738a71f905799cbcc78dc7599afa45d08a27fa1e33d9b546a4c212df8e27",
    "table3": "78c84cfa05ed74eb69965710357fe8708e86ee497849c410b918d1cd032a4a4f",
    "table4": "6c35ca5537c47cd215d307d905373d97a0716f82c9c1b42243b4b500b0ae8d14",
    "table5": "e1eb82b93ed7fe700318188ba2e62a7ec368c7d2deffc6a27d56679c1432bd3f",
    "table6": "4e3f9cae6c3eb8b28e4e204f0b20c2ac9a8b7797c34955c9795734dce6b1deeb",
    "versions": "ea71c9c5a75235f21fe5f51ee69b31d130f1d12f3c376fe0ac2428d2db728aa4",
    "outcomes": "50057ec82f0398fa6cac119bad7187a3401c231767f2e2797267af42d92f928f",
    "qa": "caaa772df4ff34a2ec125a111cef3c32c6bff05cb0ab850ee306947c4d5c1478",
    "campaigns": "0b85d8c963b6db64052aadcdba20d383f6423c8123ef983742710f2452fc0781",
    "runs": "8afdbb1cea4f064ae2a12e7398bcd2bc3a5f35a49fc789cb77604cce4a9469c0",
    "weeks": "64df4f80987668915fe5c8ad5e2958b61f62b137cdfe510c88cb4e23807950e1",
    "https-timeline": "700b674828fe4703dac38f1df0d55e792588200488d35e56258887a3cc191bea",
    "version-timeline": "844510d0ed3a6a4221703a6a82a42ee0f9524d8ab1440f68234913a06d1bf5c6",
    "churn": "cf2d128fa0d0f3b5608fb6e6bc81a0207c5ac50d7d800af77ddb1466dad01547",
    "matrix": "b0f4f4b822c3e21b6892d085d8202d51cc342bdd66c789493621c85d353ee0fc",
    "matrix-cells": "f539f0d8c689926e0920e80461e22706a84bddb28d81db40116f5c7cb3efa70e",
}

PINNED_LIST = "6ae768b5cbeace730253fae66b999152398bae70c3e82d7c81e343a2903682a2"


def _digest(*texts):
    return hashlib.sha256("\0".join(texts).encode()).hexdigest()


@pytest.fixture(scope="module")
def warehouses(loaded, series_ref, matrix_loaded):
    series = sqlite3.connect(series_ref[0])
    yield {"campaign": loaded[0], "run": series, "matrix": matrix_loaded[0]}
    series.close()


def _scope(name):
    if name in RUN_REPORTS:
        return "run"
    if name in MATRIX_REPORTS:
        return "matrix"
    return "campaign"


def test_every_report_is_pinned():
    assert list(REPORTS) == list(PINNED)


@pytest.mark.parametrize("name", list(PINNED))
def test_report_bytes_are_pinned(warehouses, name):
    report = named_report(warehouses[_scope(name)], name)
    assert report.rows, f"{name} pins an empty report"
    assert _digest(*(report.render(fmt=fmt) for fmt in FORMATS)) == PINNED[name]


def test_report_list_is_pinned(capsys):
    assert main(["query"]) == 2
    assert _digest(capsys.readouterr().out) == PINNED_LIST
