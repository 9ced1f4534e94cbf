"""The seven workloads: set-up, one iteration, output checks.

Every workload is a closed loop with one caller.  The program receives
only generated inputs (a configuration, target lists, file paths) —
never the workload's name.  All of them scan the same world spec,
``W20k`` (week 18 at 1:20,000, the legacy bench scale), generated from
``--seed``; ``handshakes_real_aead`` builds it with real cryptography
because a simulated-AEAD server cannot answer a real Initial.

``setup()`` is what a user pays before the first useful call (imports,
world build, target preparation) and is reported as ``setup_s``;
``iterate()`` is the timed operation and returns what it produced so
the harness can check it.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.experiments.campaign import Campaign, CampaignConfig
from repro.internet.providers import Scale
from repro.observability.report import render_metrics_json, stage_targets

from . import spec

# The program's own parallelism; nproc is 2.
WORKERS = 2
FLEET_JOBS = 2

# handshakes_real_aead times every scan() call; one iteration is a
# chunk of this many consecutive targets.
HANDSHAKE_CHUNK = 25
# persist_rw: report passes per cycle, sized so the three phases
# (replay, load, reports) each take a comparable share of the cycle.
REPORT_PASSES = 1000


def w20k() -> Scale:
    return Scale(
        addresses=spec.SCALE_DIVISOR,
        ases=spec.SCALE_ASES,
        domains=spec.SCALE_DIVISOR,
    )


def campaign_config(seed: int, **overrides) -> CampaignConfig:
    return CampaignConfig(week=spec.WEEK, scale=w20k(), seed=seed, **overrides)


def campaign_digest(campaign: Campaign, counts: Dict[str, int]) -> str:
    """Stage counts plus the deterministic metrics.json bytes."""
    digest = hashlib.sha256()
    digest.update(json.dumps(counts, sort_keys=True).encode())
    digest.update(render_metrics_json(campaign).encode())
    return digest.hexdigest()


def campaign_reports() -> List[str]:
    """The named mart reports keyed by campaign (not by run or matrix)."""
    from repro.warehouse.queries import MATRIX_REPORTS, REPORTS, RUN_REPORTS

    return [
        name for name in REPORTS if name not in RUN_REPORTS and name not in MATRIX_REPORTS
    ]


def records_digest(*record_lists) -> str:
    digest = hashlib.sha256()
    for records in record_lists:
        digest.update(repr(records).encode())
    return digest.hexdigest()


@dataclass
class Timed:
    """One timed call inside an iteration: start, end, thread CPU."""

    start: float
    end: float
    cpu: float


@dataclass
class Iteration:
    """What one ``iterate()`` call produced."""

    units: int
    attempted: int
    failed: int
    # Equal across iterations of one workload and seed when set.
    digest: Optional[str] = None
    # Finer-grained timed calls, when the operation is one of many
    # calls inside the iteration (handshakes) rather than all of it.
    ops: List[Timed] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)


class Workload:
    """Base class; subclasses fill in setup/iterate."""

    # One operation per child process: the operation needs a fresh
    # interpreter (week_*) or outlasts the run's measuring time.
    single_shot = False
    # iterate() calls the traced run records (and its untraced
    # reference runs first).
    trace_iterations = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def iterate(self) -> Iteration:
        raise NotImplementedError

    def reference_check(self, first: Iteration) -> List[str]:
        """An expensive cross-check, run once per benchmark run after
        the timed loop (outside every timed region)."""
        return []

    def counters(self) -> Dict[str, float]:
        """Workload-specific per-layer counters from the last iteration
        (traced run only)."""
        return {}

    def outcomes(self) -> Optional[List]:
        """Per-input outcomes the run's other children must agree with,
        for workloads whose iterations carry no digest."""
        return None

    def close(self) -> None:
        pass


class WeekCampaign(Workload):
    """week_serial / week_workers2: one cold weekly campaign."""

    single_shot = True

    def __init__(self, seed: int, workdir: Path, workers: int):
        super().__init__(seed, workdir)
        self.workers = workers
        self.campaign: Optional[Campaign] = None

    def setup(self) -> None:
        self.campaign = Campaign(campaign_config(self.seed), workers=self.workers)
        self.campaign.world  # built here, as `repro scan` does before stage one

    def iterate(self) -> Iteration:
        campaign = self.campaign
        # streaming only takes effect with workers > 1; a serial
        # campaign walks its stages in order either way
        counts = campaign.run_all_stages(streaming=True)
        campaign.close()
        return self._checked(campaign, counts)

    @staticmethod
    def _checked(campaign: Campaign, counts: Dict[str, int]) -> Iteration:
        failures = [
            f"stage {name}: {health.status} ({health.error})"
            for name, health in sorted(campaign.stage_health.items())
            if health.status != "success"
        ]
        return Iteration(
            units=sum(stage_targets(campaign).values()),
            attempted=1,
            failed=1 if failures else 0,
            digest=campaign_digest(campaign, counts),
            failures=failures,
        )

    def reference_check(self, first: Iteration) -> List[str]:
        if self.workers == 1:
            return []
        # The parallel engine's contract: byte-identical to a serial
        # run of the same configuration (on its own fresh world).
        serial = Campaign(campaign_config(self.seed))
        try:
            reference = self._checked(serial, serial.run_all_stages())
        finally:
            serial.close()
        if reference.digest != first.digest:
            return [
                f"workers={self.workers} digest {first.digest[:12]} !="
                f" serial digest {reference.digest[:12]}"
            ]
        return []

    def counters(self) -> Dict[str, float]:
        if self.workers == 1:
            return {}
        snapshot = self.campaign.metrics.snapshot()
        values = dict(snapshot["counters"])
        values.update(snapshot["gauges"])
        return {
            "parallel.stream_tasks": values.get("stream.tasks", 0),
            "parallel.stream_overlap_ratio": values.get("stream.overlap_ratio", 0.0),
            "parallel.stream_queue_depth_max": values.get("stream.queue_depth_max", 0),
            "parallel.stream_backpressure_stalls": values.get(
                "stream.backpressure_stalls", 0
            ),
        }

    def close(self) -> None:
        if self.campaign is not None:
            self.campaign.close()


class SweepStateless(Workload):
    """sweep_stateless: ZMap QUIC + TCP SYN over the /14 and the v6 list."""

    def setup(self) -> None:
        from repro.netsim.addresses import IPv4Address

        campaign = Campaign(campaign_config(self.seed))
        self.world = world = campaign.world
        self.v6_targets = list(campaign.ipv6_scan_input)
        network, blocklist = world.network, world.blocklist
        # Ground truth from the generator, never from a scanner.
        self.udp_truth_v4 = {
            value
            for value in network.udp_bound_values(443, 4)
            if not blocklist.is_blocked(IPv4Address(value))
        }
        bound_v6 = network.udp_bound_values(443, 6)
        self.udp_truth_v6 = {
            address.value
            for address in self.v6_targets
            if address.value in bound_v6 and not blocklist.is_blocked(address)
        }
        self.tcp_truth_v4 = {
            deployment.address.value
            for deployment in world.deployments
            if deployment.address.version == 4
            and network.tcp_bound(deployment.address, 443)
            and not blocklist.is_blocked(deployment.address)
        }

    def iterate(self) -> Iteration:
        from repro.scanners.zmapquic import ZmapQuicScanner
        from repro.scanners.zmaptcp import ZmapTcpScanner

        world = self.world
        network, blocklist, space = world.network, world.blocklist, world.ipv4_space

        def quic(source, label):
            return ZmapQuicScanner(
                network, source, blocklist=blocklist, seed=("scanbench", label, self.seed)
            )

        def syn(label):
            return ZmapTcpScanner(
                network, blocklist=blocklist, seed=("scanbench", label, self.seed)
            )

        quic_v4 = quic(world.scanner_v4, "zmapquic").scan_ipv4_space(space)
        syn_v4 = syn("zmaptcp").scan_ipv4_space(space)
        quic_v6 = quic(world.scanner_v6, "zmapquic6").scan_targets(self.v6_targets)
        syn_v6 = syn("zmaptcp6").scan_targets(self.v6_targets)

        failures = []
        responders = {record.address.value for record in quic_v4}
        if not responders <= self.udp_truth_v4:
            failures.append("zmapquic v4 reported an address with no QUIC listener")
        # Deployments that ignore the forced version negotiation are
        # missed by design (paper §3.1); they are a few percent.
        if len(responders) < 0.9 * len(self.udp_truth_v4):
            failures.append(
                f"zmapquic v4 found {len(responders)} of {len(self.udp_truth_v4)} listeners"
            )
        if {record.address.value for record in quic_v6} != self.udp_truth_v6:
            failures.append("zmapquic v6 responders != bound, unblocked targets")
        if {r.address.value for r in syn_v4 if r.open} != self.tcp_truth_v4:
            failures.append("zmaptcp v4 open ports != TCP :443 listeners")
        return Iteration(
            units=2 * space.num_addresses + 2 * len(self.v6_targets),
            attempted=4,
            failed=len(failures),
            digest=records_digest(quic_v4, syn_v4, quic_v6, syn_v6),
            failures=failures,
        )


class HandshakesRealAead(Workload):
    """handshakes_real_aead: QScanner with real AES-GCM/x25519/HKDF."""

    trace_iterations = 8  # 200 handshakes: enough for a p95

    def setup(self) -> None:
        from repro.quic.versions import QSCANNER_SUPPORTED
        from repro.scanners.results import TargetSource

        config = campaign_config(self.seed, fast_crypto=False)
        campaign = Campaign(config)
        self.world = campaign.world
        self.versions = config.qscanner_versions
        self.timeout = config.scan_timeout
        cap = config.max_domains_per_address
        # Targets come from the stateless stages only (ZMap responders
        # joined with DNS, plus HTTPS-RR hints): the Alt-Svc source
        # would need a full TLS-over-TCP scan with real crypto first.
        compatible = [
            record.address
            for record in campaign.zmap_v4
            if set(record.versions) & QSCANNER_SUPPORTED
        ]
        targets = [(address, None, TargetSource.ZMAP_DNS) for address in compatible]
        sni: Dict[Tuple[object, str], TargetSource] = {}
        for address in compatible:
            for domain in campaign.dns_join.domains_for(address)[:cap]:
                sni.setdefault((address, domain), TargetSource.ZMAP_DNS)
        for address, domain in campaign.https_rr_targets[4]:
            sni.setdefault((address, domain), TargetSource.HTTPS_RR)
        targets.extend(
            (address, domain, source)
            for (address, domain), source in sorted(
                sni.items(), key=lambda item: (str(item[0][0]), item[0][1])
            )
        )
        self.targets = targets
        self.position = 0
        self.scanner = None
        self.first_pass: Dict[int, Tuple[str, Optional[int]]] = {}

    def _scanner(self):
        from repro.scanners.qscanner import QScanner, QScannerConfig
        from repro.tls.ciphersuites import SUITE_AES_128_GCM_SHA256
        from repro.tls.extensions import GROUP_X25519

        world = self.world
        return QScanner(
            world.network,
            world.scanner_v4,
            QScannerConfig(
                versions=self.versions,
                trusted_roots=(world.ca.root,),
                timeout=self.timeout,
                fast_initial_protection=False,
                seed=("scanbench", "qscanner", self.seed),
                cipher_suites=(SUITE_AES_128_GCM_SHA256,),
                groups=(GROUP_X25519,),
            ),
        )

    def iterate(self) -> Iteration:
        result = Iteration(units=0, attempted=0, failed=0)
        perf, cpu = time.perf_counter, time.thread_time
        for _ in range(HANDSHAKE_CHUNK):
            if self.position == 0:
                # Each pass over the list starts a scanner with the
                # same seed, so target i sees the same client randoms.
                self.scanner = self._scanner()
            index = self.position
            address, domain, source = self.targets[index]
            cpu_start, start = cpu(), perf()
            record = self.scanner.scan(address, domain, source)
            end, cpu_end = perf(), cpu()
            result.ops.append(Timed(start, end, cpu_end - cpu_start))
            self.position = (index + 1) % len(self.targets)
            result.units += 1
            result.attempted += 1
            outcome = (record.outcome.value, record.error_code)
            expected = self.first_pass.setdefault(index, outcome)
            reason = record.error_reason or ""
            if reason.startswith("protocol-error:"):
                result.failed += 1
                result.failures.append(f"target {index}: {reason}")
            elif outcome != expected:
                result.failed += 1
                result.failures.append(
                    f"target {index}: outcome {outcome} != first pass {expected}"
                )
            elif record.is_success and record.cipher_suite != "TLS_AES_128_GCM_SHA256":
                result.failed += 1
                result.failures.append(
                    f"target {index}: negotiated {record.cipher_suite}, not real AES-GCM"
                )
        return result

    def outcomes(self) -> Optional[List]:
        return [list(self.first_pass[index]) for index in sorted(self.first_pass)]


class PersistRw(Workload):
    """persist_rw: stage-cache replay, warehouse load, report passes."""

    def setup(self) -> None:
        from repro.experiments.tables import table1

        self.config = campaign_config(self.seed)
        self.cache_dir = self.workdir / "stage-cache"
        # The cold run writes the stage cache (persistence layer one).
        self.cold = Campaign(self.config, cache_dir=self.cache_dir)
        self.cold_counts = self.cold.run_all_stages()
        self.table1_memory = [tuple(row) for row in table1(self.cold).rows]
        self.reports = campaign_reports()
        self.iterations = 0

    def iterate(self) -> Iteration:
        from repro.warehouse import connect, load_campaign
        from repro.warehouse.queries import named_report

        failures = []
        # read, layer one: a warm campaign replays every stage from disk
        warm = Campaign(self.config, cache_dir=self.cache_dir)
        try:
            if warm.run_all_stages() != self.cold_counts:
                failures.append("warm replay stage counts != cold run")
            if warm.stage_cache.misses:
                failures.append(f"warm replay missed {warm.stage_cache.misses} stages")
        finally:
            warm.close()
        # write, layer two: staging + marts + QA into a fresh sqlite file
        database = self.workdir / f"warehouse-{self.iterations}.sqlite"
        conn = connect(database)
        try:
            load = load_campaign(self.cold, conn, strict=False)
            if load.qa_failures:
                failures.append(f"{len(load.qa_failures)} warehouse QA failures")
            # read, layer two: every campaign-scoped mart report
            table1_rows = None
            for _ in range(REPORT_PASSES):
                for name in self.reports:
                    report = named_report(conn, name, load.campaign_id)
                    if name == "table1":
                        table1_rows = report.rows
            if [tuple(row) for row in table1_rows] != self.table1_memory:
                failures.append("warehouse table1 != in-memory Table 1")
        finally:
            conn.close()
            database.unlink()
        self.iterations += 1
        return Iteration(
            units=load.total_rows,
            attempted=3,
            failed=len(failures),
            digest=json.dumps(load.rows, sort_keys=True),
            failures=failures,
        )

    def close(self) -> None:
        self.cold.close()


class SeriesDelta(Workload):
    """series_delta: a short longitudinal series with delta scans."""

    single_shot = True

    def setup(self) -> None:
        from repro.longitudinal.scheduler import SeriesConfig

        self.series = SeriesConfig(
            weeks=spec.SERIES_WEEKS,
            scale=w20k(),
            seed=self.seed,
            delta=True,
            workers=1,
            cache_dir=self.workdir / "series-cache",
        )
        self.database = self.workdir / "series.sqlite"
        self.result = None

    def iterate(self) -> Iteration:
        from repro.longitudinal.scheduler import (
            LongitudinalScheduler,
            render_series_metrics,
        )
        from repro.warehouse import connect

        conn = connect(self.database)
        try:
            result = LongitudinalScheduler(self.series).run(conn)
        finally:
            conn.close()
        self.result = result
        weeks = len(self.series.weeks)
        failures = [
            f"week {state.week}: {state.status} ({state.error})"
            for state in result.failed
        ]
        if result.exit_code != 0:
            failures.append(f"series exit code {result.exit_code}")
        return Iteration(
            units=weeks,
            attempted=weeks + 1,
            failed=len(failures),
            digest=hashlib.sha256(
                render_series_metrics(self.series, result).encode()
            ).hexdigest(),
            failures=failures,
        )

    def counters(self) -> Dict[str, float]:
        from repro.longitudinal.scheduler import LongitudinalScheduler
        from repro.warehouse import connect

        hits = sum(state.delta_hits for state in self.result.weeks)
        misses = sum(state.delta_misses for state in self.result.weeks)
        conn = connect(self.database)
        try:
            start = time.perf_counter()
            LongitudinalScheduler(self.series).run(conn, resume=True)
            resume = time.perf_counter() - start
        finally:
            conn.close()
        return {
            "longitudinal.delta_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "longitudinal.resume_noop_s": resume,
        }


class MatrixFleet(Workload):
    """matrix_fleet: path-profile cells on the fleet scheduler."""

    single_shot = True

    def setup(self) -> None:
        from repro.experiments.matrix import MatrixConfig, profile_cells

        self.matrix = MatrixConfig(
            cells=tuple(profile_cells(list(spec.MATRIX_PROFILES))),
            week=spec.WEEK,
            scale=w20k(),
            seed=self.seed,
        )
        self.result = None

    def iterate(self) -> Iteration:
        from repro.experiments.matrix import run_matrix
        from repro.warehouse import connect

        conn = connect(self.workdir / "matrix.sqlite")
        try:
            result = run_matrix(self.matrix, conn, strict=False, fleet_jobs=FLEET_JOBS)
        finally:
            conn.close()
        self.result = result
        cells = len(self.matrix.cells)
        telemetry = result.fleet_telemetry or {}
        failures = []
        if len(result.cells) != cells:
            failures.append(f"{len(result.cells)}/{cells} cells complete")
        if result.qa_failures:
            failures.append(f"{len(result.qa_failures)} matrix QA failures")
        cell_failures = sum(len(cell.load.qa_failures) for cell in result.cells)
        if cell_failures:
            failures.append(f"{cell_failures} cell QA failures")
        if telemetry.get("pool_respawns", 0) != 0:
            failures.append(f"fleet pool respawned {telemetry['pool_respawns']} times")
        return Iteration(
            units=cells,
            attempted=cells + 2,
            failed=len(failures),
            digest=json.dumps(
                [[cell.campaign_id, cell.load.rows] for cell in result.cells],
                sort_keys=True,
            ),
            failures=failures,
        )

    def counters(self) -> Dict[str, float]:
        telemetry = self.result.fleet_telemetry or {}
        return {
            "parallel.fleet_world_builds": telemetry.get("world_builds", 0),
            "parallel.fleet_world_reuse_hits": telemetry.get("world_reuse_hits", 0),
            "parallel.fleet_pool_respawns": telemetry.get("pool_respawns", 0),
            "parallel.fleet_overlap_ratio": telemetry.get("overlap_ratio", 0.0),
            "parallel.fleet_scan_s": telemetry.get("scan_seconds", 0.0),
            "parallel.fleet_load_s": telemetry.get("load_seconds", 0.0),
        }


def make(name: str, seed: int, workdir: Path) -> Workload:
    if name == "week_serial":
        return WeekCampaign(seed, workdir, workers=1)
    if name == "week_workers2":
        return WeekCampaign(seed, workdir, workers=WORKERS)
    classes = {
        "sweep_stateless": SweepStateless,
        "handshakes_real_aead": HandshakesRealAead,
        "persist_rw": PersistRw,
        "series_delta": SeriesDelta,
        "matrix_fleet": MatrixFleet,
    }
    return classes[name](seed, workdir)
