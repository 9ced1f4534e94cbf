"""Shared fixtures: a small-scale simulated Internet and campaign.

The tiny scale keeps the full test suite fast while exercising every
code path; benchmarks use the default (paper-shape) scale.  The three
warehouses (one loaded campaign, one longitudinal series, one scenario
matrix) are built once per session at the CLI's ``--scale 200000
--seed 23`` mapping, so in-process loads and ``repro`` subprocesses
agree on campaign, run and matrix ids.
"""

import sqlite3

import pytest

from repro.crypto.rsa import RsaPublicKey
from repro.experiments import get_campaign
from repro.experiments.matrix import MatrixConfig, grid_cells, run_matrix
from repro.internet.providers import Scale
from repro.longitudinal import LongitudinalScheduler, SeriesConfig
from repro.warehouse import connect, load_campaign

TINY_SCALE = Scale(addresses=20_000, ases=200, domains=20_000)
WAREHOUSE_SCALE = Scale(addresses=200_000, ases=4_000, domains=200_000)
WAREHOUSE_SEED = 23
SERIES_WEEKS = (16, 17, 18)


@pytest.fixture(scope="session")
def tiny_campaign():
    """A cached small-scale week-18 campaign."""
    return get_campaign(week=18, scale=TINY_SCALE, seed=7)


@pytest.fixture(scope="session")
def tiny_world(tiny_campaign):
    return tiny_campaign.world


@pytest.fixture()
def signature_checks(monkeypatch):
    """One entry per ``RsaPublicKey.verify`` call while the test runs."""
    calls = []
    real = RsaPublicKey.verify

    def counting(key, message, signature):
        calls.append(key)
        return real(key, message, signature)

    monkeypatch.setattr(RsaPublicKey, "verify", counting)
    return calls


@pytest.fixture(scope="session")
def loaded():
    """One week-18 campaign loaded into an in-memory warehouse."""
    campaign = get_campaign(week=18, scale=WAREHOUSE_SCALE, seed=WAREHOUSE_SEED)
    conn = sqlite3.connect(":memory:")
    result = load_campaign(campaign, conn)
    yield conn, result, campaign
    conn.close()


@pytest.fixture(scope="session")
def series_ref(tmp_path_factory):
    """An uninterrupted delta series over ``SERIES_WEEKS`` in a file warehouse."""
    root = tmp_path_factory.mktemp("lt-ref")
    config = SeriesConfig(
        weeks=SERIES_WEEKS,
        scale=WAREHOUSE_SCALE,
        seed=WAREHOUSE_SEED,
        cache_dir=root / "cache",
    )
    conn = connect(root / "wh.sqlite")
    try:
        result = LongitudinalScheduler(config).run(conn)
    finally:
        conn.close()
    return root / "wh.sqlite", config, result


@pytest.fixture(scope="session")
def matrix_loaded():
    """A 2x2 rate x RTT scenario matrix loaded into an in-memory warehouse."""
    conn = sqlite3.connect(":memory:")
    matrix = MatrixConfig(
        cells=tuple(grid_cells(2, 2)), week=18, scale=WAREHOUSE_SCALE, seed=WAREHOUSE_SEED
    )
    result = run_matrix(matrix, conn)
    yield conn, matrix, result
    conn.close()
