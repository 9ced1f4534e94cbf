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
    "campaigns": "b64527c2523b567908ba81741a7db2436556945ec75c37ba124ea50fddc1dfbb",
    "runs": "d0924606c1553234d1c5ef65482273381568863b242724c8c420c4d33a300d75",
    "weeks": "a6ea18b7bc82969ce686a207fb4163b4f3e5eaaa575603cc4374f89a4be9e449",
    "https-timeline": "9b3b7ef8732634659f2e8612d0bc8178164f10fed3910b83acc9667603750a04",
    "version-timeline": "c1715851d93d46b96d95e81d98cfbfe1fe2344e1de91baddfd4bcf5bd5f58bbf",
    "churn": "7bd0dcf117f6bdad56e66690ed4571665ce17c9cfd0e47ceae577fd32c88623c",
    "matrix": "e5e99b0d457d19ad4cfafc4202f4cefa36b3339da4ceadd392303503b7e3a863",
    "matrix-cells": "ee410d4f80873cdb860babcf930b43219c4eb74112be4fea911f71983b396abf",
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
