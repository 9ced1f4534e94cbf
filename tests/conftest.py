"""Shared fixtures: a small-scale simulated Internet and campaign.

The tiny scale keeps the full test suite fast while exercising every
code path; benchmarks use the default (paper-shape) scale.  The three
warehouses (one loaded campaign, one longitudinal series, one scenario
matrix) are built once per session at the CLI's ``--scale 200000
--seed 23`` mapping, so in-process loads and ``repro`` subprocesses
agree on campaign, run and matrix ids.

``identity`` is the session's one registry of the runs the identity
matrix (``tests/test_identity.py``) compares: each campaign, matrix or
series is run once per execution mode, and every other test that needs
one of those runs reads it from there.
"""

import dataclasses
import gc
import os
import sqlite3
import weakref
from collections import Counter
from dataclasses import dataclass, field

import pytest

from repro.conformance.differential import (
    Artefacts,
    campaign_artefacts,
    fingerprint,
    matrix_artefacts,
)
from repro.crypto.rsa import RsaPublicKey
from repro.experiments import campaign as campaign_module, get_campaign
from repro.experiments import matrix as matrix_module
from repro.experiments.campaign import Campaign, CampaignConfig
from repro.experiments.matrix import MatrixConfig, grid_cells, run_matrix
from repro.experiments.stages import STAGE_NAMES
from repro.internet.providers import Scale
from repro.longitudinal import LongitudinalScheduler, SeriesConfig
from repro.parallel import pool
from repro.parallel.fleet import FleetScheduler
from repro.parallel.stream import StreamEngine
from repro.scanners.retry import RetryPolicy
from repro.warehouse import connect, load_campaign

TINY_SCALE = Scale(addresses=20_000, ases=200, domains=20_000)
WAREHOUSE_SCALE = Scale(addresses=200_000, ases=4_000, domains=200_000)
WAREHOUSE_SEED = 23
SERIES_WEEKS = (16, 17, 18)

# The campaigns several test files read from the identity registry.
# Every stage yields records at 1:100,000, with several close codes.
BASELINE_CONFIG = CampaignConfig(
    week=18, scale=Scale(addresses=100_000, ases=2_000, domains=100_000), seed=3
)
# Faults plus retries: fault epochs, the retry rng and the backoff clock
# all have to replay the serial schedule.
CHAOS_CONFIG = CampaignConfig(
    week=18, scale=TINY_SCALE, seed=29, fault_profile="flaky-edge", retry=RetryPolicy(attempts=2)
)
# A delta series, and the same series with every week scanned in full:
# what delta scans must reproduce, and what ``--workers 2`` must
# reproduce of each.
SERIES = SeriesConfig(weeks=SERIES_WEEKS, scale=WAREHOUSE_SCALE, seed=WAREHOUSE_SEED)
FULL_SERIES = dataclasses.replace(SERIES, delta=False)

# No tier-1 test may take longer, set-up plus call.  pytest charges a
# session fixture's set-up to the first test that uses it, and the
# identity registry runs inside the test that first asks, so both are
# held to it too.
TEST_BUDGET_S = 20.0
_SETUP_S = pytest.StashKey[float]()


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    if report.when == "setup":
        item.stash[_SETUP_S] = report.duration
    elif report.when == "call" and report.passed and not item.get_closest_marker("slow_fuzz"):
        spent = item.stash.get(_SETUP_S, 0.0) + report.duration
        if spent > TEST_BUDGET_S:
            report.outcome = "failed"
            report.longrepr = (
                f"set-up plus call took {spent:.1f} s;"
                f" a tier-1 test may take {TEST_BUDGET_S:.0f} s"
            )
    return report


@dataclass
class IdentityRun:
    """One finished run: what it left behind and what the tests count."""

    artefacts: object  # Artefacts
    # The closed Campaign, the MatrixResult or the series' (db, config,
    # result); None for a campaign run no other test reads (see
    # ``IdentityRuns.READ``), so the session holds no world it is done with.
    subject: object
    # By week: the tasks the run's campaigns streamed to a pool, their
    # stream engine runs, and the pool forks those runs made.
    pooled_tasks: Counter = field(default_factory=Counter)
    stream_runs: Counter = field(default_factory=Counter)
    pool_forks: Counter = field(default_factory=Counter)
    # A fleet matrix's cell campaigns alive with a stage computed at each
    # commit and after the run, and how many it created.
    residency: tuple = ()
    # One pid per world build, in order; forked workers log theirs,
    # spawned ones (which start unpatched) do not.
    world_builders: tuple = ()


def _log_world_builds(patch, log):
    real = campaign_module.build_world

    def logged(*args, **kwargs):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    patch.setattr(campaign_module, "build_world", logged)


def _count_streams(patch):
    """Count, by week, the stream engine runs, the tasks they send to a
    pool and the pool forks they make (see :class:`IdentityRun`)."""
    tasks, runs, forks = Counter(), Counter(), Counter()
    real = StreamEngine.run

    def forked(campaign):
        return campaign._pool.forks if campaign._pool is not None else 0

    def counted(engine):
        campaign = engine.campaign
        before = forked(campaign)
        real(engine)
        week = campaign.config.week
        tasks[week] += engine._tasks_total
        runs[week] += 1
        forks[week] += forked(campaign) - before

    patch.setattr(StreamEngine, "run", counted)
    return tasks, runs, forks


def _track_residency(patch):
    """Weakly track each cell campaign a fleet creates; the returned call
    gives what :attr:`IdentityRun.residency` holds."""
    created, at_commit = [], []

    def resident():
        gc.collect()
        alive = [ref() for ref in created]
        return sum(1 for c in alive if c is not None and any(n in vars(c) for n in STAGE_NAMES))

    def cell_campaign(fleet, config, cache_dir=None, real=FleetScheduler.cell_campaign):
        campaign = real(fleet, config, cache_dir=cache_dir)
        created.append(weakref.ref(campaign))
        return campaign

    def commit_cell(*args, real=matrix_module._commit_cell):
        at_commit.append(resident())
        return real(*args)

    patch.setattr(FleetScheduler, "cell_campaign", cell_campaign)
    patch.setattr(matrix_module, "_commit_cell", commit_cell)
    return lambda: (at_commit, resident(), len(created))


class IdentityRuns:
    """Every run the identity matrix compares, each made once.

    A run is keyed by ``(configuration key, mode)``, a campaign's key
    being ``config.cache_key()``, and every pool it opens is closed
    before it returns.  Modes by configuration:

    - :class:`CampaignConfig`: ``serial``; ``fork2``/``fork3``, on its
      own pool of forked workers; ``spawn2``, whose workers rebuild
      their world;
    - :class:`MatrixConfig`: ``serial``; ``fleet1``/``fleet2`` fleet
      jobs; ``spawn-fleet2``, two jobs on spawned workers;
    - :class:`SeriesConfig`: ``serial``; ``fork2``, each week on a pool.
    """

    _WORKERS = {"serial": 1, "fork2": 2, "fork3": 3, "spawn2": 2}
    # The campaign runs whose Campaign other tests read.
    READ = {
        (BASELINE_CONFIG.cache_key(), "serial"),
        (CHAOS_CONFIG.cache_key(), "serial"),
        (CHAOS_CONFIG.cache_key(), "fork2"),
    }

    def __init__(self, root):
        self._root = root
        self._runs = {}

    def run(self, config, mode="serial") -> IdentityRun:
        key = config.cache_key() if isinstance(config, CampaignConfig) else config
        if (key, mode) not in self._runs:
            with pytest.MonkeyPatch.context() as patch:
                if mode.startswith("spawn"):
                    patch.setattr(pool, "START_METHOD", "spawn")
                directory = self._root / f"run-{len(self._runs)}"
                pids = directory.with_suffix(".pids")
                _log_world_builds(patch, pids)
                counts = _count_streams(patch)
                run = self._make(config, mode, directory, patch)
            run.world_builders = tuple(map(int, pids.read_text().split()))
            run.pooled_tasks, run.stream_runs, run.pool_forks = counts
            if isinstance(config, CampaignConfig) and (key, mode) not in self.READ:
                run.subject = None
            self._runs[key, mode] = run
        return self._runs[key, mode]

    def _make(self, config, mode, directory, patch):
        if isinstance(config, CampaignConfig):
            campaign = Campaign(config, workers=self._WORKERS[mode])
            try:
                campaign.run_all_stages()
            finally:
                campaign.close()
            return IdentityRun(campaign_artefacts(campaign), campaign)
        if isinstance(config, MatrixConfig):
            if mode == "serial":
                return IdentityRun(*matrix_artefacts(directory, config, None))
            residency = _track_residency(patch)
            run = IdentityRun(*matrix_artefacts(directory, config, fleet_jobs=int(mode[-1])))
            run.residency = residency()
            return run
        config = dataclasses.replace(config, workers=self._WORKERS[mode], cache_dir=directory)
        database = directory / "wh.sqlite"
        conn = connect(database)
        try:
            result = LongitudinalScheduler(config).run(conn)
        finally:
            conn.close()
        artefacts = Artefacts({}, {database.name: fingerprint(database.read_bytes())})
        return IdentityRun(artefacts, (database, config, result))


@pytest.fixture(scope="session")
def identity(tmp_path_factory):
    """The session's identity registry (see :class:`IdentityRuns`)."""
    return IdentityRuns(tmp_path_factory.mktemp("identity"))


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
def series_ref(identity):
    """An uninterrupted delta series over ``SERIES_WEEKS`` in a file warehouse."""
    return identity.run(SERIES).subject


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
