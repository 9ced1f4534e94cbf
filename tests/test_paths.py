"""Path-condition profiles and the scenario matrix (docs/SCENARIOS.md).

The contracts under test:

- the spec grammar parses the catalogue, composes overrides, and
  rejects malformed input with :class:`PathSpecError` only, with
  ``parse(canonical(spec)) == spec`` round-trips;
- the token bucket conserves bytes (never more than
  ``burst + rate x elapsed + queue`` admitted over any window), never
  holds more than ``queue`` bytes of backlog, tail-drops beyond it,
  grows delay monotonically under sustained load (bufferbloat) and
  drains back to zero after an idle period;
- shaping composes with fault injection and stays byte-identical
  between serial and sharded campaign runs for every profile;
- ``NetworkConditions.faults`` entries are validated loudly at epoch
  begin (a stray non-FaultSpec cannot ride along silently);
- ``run_matrix`` loads QA-clean, crash-safe cell rows, and a tampered
  ``mart_matrix_outcomes`` row trips the matrix ``mart_equivalence``
  check with the evidence recorded.
"""

import dataclasses
import sqlite3
from functools import lru_cache

import pytest

from repro.experiments.campaign import Campaign, CampaignConfig
from repro.experiments.stages import STAGE_NAMES
from repro.experiments.matrix import (
    DEFAULT_RATES_MBPS,
    MatrixConfig,
    grid_cells,
    matrix_id,
    profile_cells,
    run_matrix,
)
from repro.internet.providers import Scale
from repro.netsim.addresses import IPv4Address
from repro.netsim.faults import PROFILES, BurstLoss
from repro.netsim.paths import (
    PATH_PROFILES,
    PathSpec,
    PathSpecError,
    apply_path_profile,
    get_path_profile,
    parse_path_spec,
)
from repro.netsim.topology import Network, NetworkConditions, UdpEndpoint
from repro.observability.report import render_metrics_json
from repro.warehouse import WarehouseQaError
from repro.warehouse.qa import run_matrix_qa
from repro.warehouse.queries import named_report

CLIENT = IPv4Address.parse("198.51.100.1")
SERVER = IPv4Address.parse("192.0.2.1")

# Same small world the warehouse tests use; identical parameters let
# the CLI test reuse the memoised campaign.
_SCALE = Scale(addresses=200_000, ases=4_000, domains=200_000)
_SEED = 23


# -- spec grammar --------------------------------------------------------------


class TestSpecGrammar:
    @pytest.mark.parametrize("name", sorted(PATH_PROFILES))
    def test_named_profiles_parse_to_catalogue_entries(self, name):
        assert parse_path_spec(name) == PATH_PROFILES[name]
        assert get_path_profile(name) is PATH_PROFILES[name]

    def test_rate_units_are_bits_per_second(self):
        assert parse_path_spec("rate=2mbps").rate == 250_000.0  # bytes/s
        assert parse_path_spec("rate=500kbps").rate == 62_500.0
        assert parse_path_spec("rate=1gbps").rate == 125_000_000.0
        assert parse_path_spec("rate=8000").rate == 1_000.0  # bare: bits/s

    def test_rtt_units(self):
        assert parse_path_spec("rtt=600ms").rtt == pytest.approx(0.6)
        assert parse_path_spec("rtt=0.08s").rtt == pytest.approx(0.08)
        assert parse_path_spec("rtt=2").rtt == pytest.approx(2.0)  # bare: s

    def test_loss_fraction_and_percent(self):
        assert parse_path_spec("loss=5%").loss == pytest.approx(0.05)
        assert parse_path_spec("loss=0.15").loss == pytest.approx(0.15)

    def test_burst_and_queue_units(self):
        spec = parse_path_spec("rate=1mbps,burst=9kb,queue=0.3mb")
        assert spec.burst == 9_000 and spec.queue == 300_000

    def test_profile_with_overrides(self):
        spec = parse_path_spec("geo-satellite,rtt=800ms")
        assert spec.rate == PATH_PROFILES["geo-satellite"].rate
        assert spec.rtt == pytest.approx(0.8)

    def test_asymmetric_up_down(self):
        spec = parse_path_spec("up=1mbps,down=10mbps")
        assert spec.resolved_rate("up") == 125_000.0
        assert spec.resolved_rate("down") == 1_250_000.0
        assert spec.rate is None

    @pytest.mark.parametrize("name", sorted(PATH_PROFILES))
    def test_catalogue_canonical_roundtrip(self, name):
        spec = PATH_PROFILES[name]
        assert parse_path_spec(spec.canonical()) == spec

    @pytest.mark.parametrize(
        "text",
        [
            "rate=2mbps,rtt=600ms",
            "up=500kbps,down=10mbps,loss=5%",
            "bufferbloat,queue=120kb",
            "lossy-edge,loss=50%",
        ],
    )
    def test_custom_canonical_roundtrip(self, text):
        spec = parse_path_spec(text)
        assert parse_path_spec(spec.canonical()) == spec

    def test_unshaped_canonical_is_baseline(self):
        assert PathSpec().canonical() == "baseline"
        assert not PATH_PROFILES["baseline"].shapes

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "   ",
            "no-such-profile",
            "rate=2mbps,geo-satellite",  # profile name must come first
            "rate=",
            "rate=abc",
            "rate=nanmbps",
            "rate=infmbps",
            "rate=-2mbps",
            "rate=0",
            "rtt=-5ms",
            "loss=1.5",
            "loss=-0.1",
            "loss=200%",
            "queue=0",
            "burst=-1kb",
            "frobnicate=1",
            ",rate=2mbps",
        ],
    )
    def test_malformed_specs_raise_typed_error(self, text):
        with pytest.raises(PathSpecError):
            parse_path_spec(text)

    def test_path_spec_error_is_a_value_error(self):
        assert issubclass(PathSpecError, ValueError)

    def test_unknown_profile_lists_catalogue(self):
        with pytest.raises(ValueError, match="geo-satellite"):
            get_path_profile("dial-up")


# -- token bucket / shaping state ----------------------------------------------


def _state(spec_text, seed=0):
    from repro.crypto.rand import DeterministicRandom

    return parse_path_spec(spec_text).instantiate(DeterministicRandom(seed))


class TestShaping:
    def test_token_bucket_conserves_bytes(self):
        # Over any window, admitted bytes <= burst + rate x elapsed + queue.
        spec = parse_path_spec("rate=8kbps,burst=1kb,queue=2kb")  # 1000 B/s
        state = _state("rate=8kbps,burst=1kb,queue=2kb")
        admitted = 0
        elapsed = 5.0
        step = elapsed / 500
        for index in range(500):
            if state.admit(index * step, 100, "up") is not None:
                admitted += 100
        rate = spec.resolved_rate("up")
        assert admitted <= spec.burst + rate * elapsed + spec.queue

    def test_backlog_never_exceeds_queue(self):
        state = _state("rate=8kbps,burst=1kb,queue=2kb")
        for _ in range(100):
            delay = state.admit(0.0, 150, "up")
            backlog = state._up.backlog
            assert backlog <= 2_000
            if delay is not None:
                assert delay <= 2_000 / 1_000  # queue / rate bounds the delay

    def test_tail_drop_beyond_queue(self):
        state = _state("rate=8kbps,burst=100b,queue=200b")
        assert state.admit(0.0, 500, "up") is None  # 100 - 500 < -200

    def test_bufferbloat_delay_grows_monotonically(self):
        state = _state("bufferbloat")
        delays = [state.admit(0.0, 1_200, "up") for _ in range(50)]
        assert all(delay is not None for delay in delays)
        assert delays == sorted(delays)
        assert delays[-1] > delays[0] > 0.0 or delays[0] == 0.0

    def test_queue_drains_after_idle(self):
        state = _state("rate=8kbps,burst=1kb,queue=10kb")
        for _ in range(10):
            state.admit(0.0, 1_000, "up")
        saturated = state.admit(0.0, 100, "up")
        assert saturated > 0.0
        # 10 kB of backlog at 1 kB/s drains in 10 s; leave 20.
        assert state.admit(20.0, 100, "up") == 0.0

    def test_unlimited_direction_is_free(self):
        state = _state("up=8kbps")
        assert state.admit(0.0, 10**6, "down") == 0.0

    def test_loss_draws_are_deterministic(self):
        a = _state("loss=50%", seed=7)
        b = _state("loss=50%", seed=7)
        draws_a = [a.admit(0.0, 1, "up") for _ in range(64)]
        draws_b = [b.admit(0.0, 1, "up") for _ in range(64)]
        assert draws_a == draws_b
        assert None in draws_a and 0.0 in draws_a  # both outcomes occur

    def test_tcp_segments_skip_stochastic_loss(self):
        state = _state("loss=1.0,rate=8kbps")
        assert state.admit(0.0, 100, "up") is None  # UDP: always lost
        assert state.admit_segment(0.0, 100, "up") is not None  # TCP: admitted


# -- network integration -------------------------------------------------------


class _Echo(UdpEndpoint):
    def datagram_received(self, network, source, data, reply):
        reply(data)


def _shaped_net(spec_text, rtt=0.05, seed=1, path_seed=0):
    net = Network(seed=seed)
    net.configure_paths(path_seed)
    net.bind_udp(SERVER, 443, _Echo())
    spec = parse_path_spec(spec_text)
    net.set_conditions(SERVER, NetworkConditions(rtt=rtt, path=spec))
    return net


class TestNetworkIntegration:
    def test_reply_arrival_includes_queueing_delay(self):
        net = _shaped_net("up=8kbps,burst=100b,queue=100kb")
        sock = net.client_socket(CLIENT)
        sock.send(SERVER, 443, b"x" * 500)
        assert sock.receive(10.0) is not None
        # burst 100 - 500 = -400 backlog at 1000 B/s -> 0.4 s + rtt.
        assert net.now == pytest.approx(0.05 + 0.4)

    def test_sustained_load_grows_arrival_delay(self):
        # Five 500 B datagrams sent back-to-back at t=0: each stands
        # behind a deeper backlog, so arrivals spread out by 0.5 s each
        # (500 B at 1000 B/s) instead of clustering one RTT out.
        net = _shaped_net("up=8kbps,burst=100b,queue=1mb")
        sock = net.client_socket(CLIENT)
        for _ in range(5):
            sock.send(SERVER, 443, b"x" * 500)
        arrivals = []
        for _ in range(5):
            assert sock.receive(60.0) is not None
            arrivals.append(net.now)
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] - arrivals[0] == pytest.approx(4 * 0.5)

    def test_tail_drop_counts_and_silences(self):
        net = _shaped_net("up=8kbps,burst=100b,queue=200b")
        sock = net.client_socket(CLIENT)
        sock.send(SERVER, 443, b"x" * 500)
        assert net.stats.path_drops == 1
        assert sock.receive(5.0) is None

    def test_epoch_reset_refills_the_bucket(self):
        net = _shaped_net("up=8kbps,burst=100b,queue=200b")
        sock = net.client_socket(CLIENT)
        sock.send(SERVER, 443, b"x" * 500)  # dropped: bucket exhausted
        assert net.stats.path_drops == 1
        net.begin_fault_epoch("next-stage")
        sock.send(SERVER, 443, b"x" * 100)  # fresh state: admitted
        assert net.stats.path_drops == 1
        assert sock.receive(10.0) is not None

    def test_identical_networks_make_identical_loss_decisions(self):
        def deliveries():
            net = _shaped_net("loss=30%", seed=9, path_seed=17)
            sock = net.client_socket(CLIENT)
            outcomes = []
            for _ in range(40):
                sock.send(SERVER, 443, b"probe")
                outcomes.append(sock.receive(1.0) is not None)
            return outcomes

        first, second = deliveries(), deliveries()
        assert first == second
        assert any(first) and not all(first)

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_composes_with_every_chaos_profile(self, profile):
        net = _shaped_net("geo-satellite", rtt=0.6, seed=3)
        faults = tuple(entry.spec for entry in PROFILES[profile].entries)
        conditions = net.conditions_for(SERVER)
        net.set_conditions(SERVER, dataclasses.replace(conditions, faults=faults))
        net.begin_fault_epoch(f"compose-{profile}")
        sock = net.client_socket(CLIENT)
        for _ in range(20):
            sock.send(SERVER, 443, b"probe")
            sock.receive(1.0)
        assert net.stats.datagrams_sent == 20  # survived without crashing

    def test_syn_probe_pays_the_uplink(self):
        net = Network(seed=1)
        net.configure_paths(0)
        net.set_conditions(
            SERVER,
            NetworkConditions(path=parse_path_spec("up=8kbps,burst=100b,queue=100b")),
        )
        # 40-byte SYNs: the first five fit (100 burst + 100 queue), the
        # sixth tail-drops even though the port is closed anyway.
        for _ in range(6):
            net.syn_probe(SERVER, 443)
        assert net.stats.path_drops >= 1

    def test_apply_path_profile_installs_rtt_and_spec(self):
        net = Network(seed=1)
        spec = parse_path_spec("geo-satellite")
        count = apply_path_profile(net, [SERVER], spec, seed=5)
        assert count == 1
        conditions = net.conditions_for(SERVER)
        assert conditions.rtt == pytest.approx(0.6)
        assert conditions.path == spec

    def test_apply_baseline_profile_is_a_no_op_spec(self):
        net = Network(seed=1)
        before = net.conditions_for(SERVER)
        apply_path_profile(net, [SERVER], PATH_PROFILES["baseline"], seed=5)
        conditions = net.conditions_for(SERVER)
        assert conditions.path is None
        assert conditions.rtt == before.rtt


class TestFaultSpecValidation:
    def test_non_faultspec_entry_fails_loudly_at_epoch_begin(self):
        net = Network(seed=1)
        net.set_conditions(SERVER, NetworkConditions(faults=("drop-everything",)))
        with pytest.raises(TypeError, match=r"192\.0\.2\.1.*drop-everything"):
            net.begin_fault_epoch("stage")

    def test_valid_faultspec_entries_pass(self):
        net = Network(seed=1)
        net.set_conditions(SERVER, NetworkConditions(faults=(BurstLoss(),)))
        net.begin_fault_epoch("stage")  # no raise
        assert net._fault_epoch == "stage"


# -- campaign determinism ------------------------------------------------------


@lru_cache(maxsize=None)
def _campaign_fingerprint(path_profile, fault_profile, workers):
    """(per-stage records, metrics.json) for one campaign run."""
    config = CampaignConfig(
        week=18,
        scale=_SCALE,
        seed=_SEED,
        path_profile=path_profile,
        fault_profile=fault_profile,
    )
    campaign = Campaign(config, workers=workers)
    try:
        campaign.run_all_stages()
        records = {name: list(getattr(campaign, name)) for name in STAGE_NAMES}
        return records, render_metrics_json(campaign)
    finally:
        campaign.close()


class TestCampaignDeterminism:
    @pytest.mark.parametrize("profile", ["baseline", "geo-satellite", "bufferbloat"])
    def test_serial_equals_parallel_per_profile(self, profile):
        serial = _campaign_fingerprint(profile, None, 1)
        parallel = _campaign_fingerprint(profile, None, 2)
        assert serial[0] == parallel[0]  # records, stage by stage
        assert serial[1] == parallel[1]  # metrics.json bytes

    def test_baseline_profile_equals_no_profile(self):
        assert _campaign_fingerprint("baseline", None, 1)[0] == (
            _campaign_fingerprint(None, None, 1)[0]
        )

    def test_lossy_edge_shifts_the_outcome_mix(self):
        from repro.scanners.results import QScanOutcome

        def successes(fingerprint):
            return sum(
                1
                for record in fingerprint[0]["qscan_sni_v4"]
                if record.outcome == QScanOutcome.SUCCESS
            )

        baseline = successes(_campaign_fingerprint("baseline", None, 1))
        lossy = successes(_campaign_fingerprint("lossy-edge", None, 1))
        assert lossy < baseline

    def test_composes_with_fault_profile_deterministically(self):
        serial = _campaign_fingerprint("lossy-edge", "flaky-edge", 1)
        parallel = _campaign_fingerprint("lossy-edge", "flaky-edge", 2)
        assert serial == parallel


# -- the scenario matrix -------------------------------------------------------


def _copy(conn):
    duplicate = sqlite3.connect(":memory:")
    duplicate.executescript("\n".join(conn.iterdump()))
    return duplicate


class TestMatrix:
    def test_grid_cells_shape_and_uniqueness(self):
        cells = grid_cells(2, 3)
        assert len(cells) == 6
        assert len({cell.cell_id for cell in cells}) == 6
        assert {(cell.grid_row, cell.grid_col) for cell in cells} == {
            (r, c) for r in range(2) for c in range(3)
        }
        # Endpoints of the canonical axes are always included.
        assert any(f"rate={DEFAULT_RATES_MBPS[0]:g}mbps" in c.cell_id for c in cells)
        assert any(f"rate={DEFAULT_RATES_MBPS[-1]:g}mbps" in c.cell_id for c in cells)

    def test_grid_rejects_oversized_axes(self):
        with pytest.raises(ValueError):
            grid_cells(len(DEFAULT_RATES_MBPS) + 1, 2)

    def test_profile_cells_label_and_validate(self):
        cells = profile_cells(["baseline", "geo-satellite"])
        assert [cell.profile for cell in cells] == ["baseline", "geo-satellite"]
        assert cells[1].rtt_label == "600ms" and cells[1].rate_label == "2mbps"
        with pytest.raises(PathSpecError):
            profile_cells(["no-such-profile"])

    def test_matrix_id_ignores_execution_details(self):
        matrix = MatrixConfig(cells=tuple(grid_cells(2, 2)), scale=_SCALE, seed=_SEED)
        assert matrix_id(matrix) == matrix_id(
            dataclasses.replace(matrix, workers=4, cache_dir="/elsewhere")
        )
        assert matrix_id(matrix) != matrix_id(dataclasses.replace(matrix, seed=_SEED + 1))

    def test_duplicate_cell_ids_refused(self, matrix_loaded):
        conn, matrix, _result = matrix_loaded
        twice = dataclasses.replace(matrix, cells=matrix.cells + matrix.cells[:1])
        with pytest.raises(ValueError, match="unique"):
            run_matrix(twice, conn)

    def test_every_cell_recorded_and_qa_clean(self, matrix_loaded):
        conn, matrix, result = matrix_loaded
        assert len(result.cells) == 4 and not result.qa_failures
        ledger = conn.execute(
            "SELECT COUNT(*) FROM matrix_runs WHERE matrix_id = ?",
            (result.matrix_id,),
        ).fetchone()[0]
        outcomes = conn.execute(
            "SELECT COUNT(*) FROM mart_matrix_outcomes WHERE matrix_id = ?",
            (result.matrix_id,),
        ).fetchone()[0]
        assert ledger == outcomes == 4
        for row in conn.execute(
            "SELECT targets, success_rate + timeout_rate + crypto_error_rate"
            " + version_mismatch_rate + other_rate FROM mart_matrix_outcomes"
        ):
            assert row[0] > 0
            assert row[1] == pytest.approx(100.0, abs=0.1)

    def test_cell_campaigns_are_path_scoped(self, matrix_loaded):
        conn, _matrix, result = matrix_loaded
        campaign_ids = [cell.campaign_id for cell in result.cells]
        assert len(set(campaign_ids)) == 4  # path_profile is in the id
        specs = {
            row[0]
            for row in conn.execute("SELECT spec FROM matrix_runs").fetchall()
        }
        assert len(specs) == 4
        for spec in specs:
            assert parse_path_spec(spec)  # canonical specs re-parse

    def test_matrix_qa_rerun_is_idempotent(self, matrix_loaded):
        conn, _matrix, result = matrix_loaded
        rerun = run_matrix_qa(conn, result.matrix_id, strict=True)
        assert all(check.status == "pass" for check in rerun)

    def test_tampered_outcome_row_trips_mart_equivalence(self, matrix_loaded):
        conn, _matrix, result = matrix_loaded
        corrupt = _copy(conn)
        corrupt.execute(
            "UPDATE mart_matrix_outcomes SET success_rate = success_rate + 1"
        )
        with pytest.raises(WarehouseQaError) as excinfo:
            run_matrix_qa(corrupt, result.matrix_id, strict=True)
        assert {failure.check for failure in excinfo.value.failures} == {
            "mart_equivalence"
        }
        # The evidence is recorded under the matrix id, not just raised.
        recorded = corrupt.execute(
            "SELECT COUNT(*) FROM qa_results WHERE campaign_id = ? AND status = 'fail'",
            (result.matrix_id,),
        ).fetchone()[0]
        assert recorded == len(excinfo.value.failures) == 4
        corrupt.close()

    def test_missing_cell_row_trips_row_counts(self, matrix_loaded):
        conn, _matrix, result = matrix_loaded
        corrupt = _copy(conn)
        cell = corrupt.execute(
            "SELECT cell_id FROM mart_matrix_outcomes LIMIT 1"
        ).fetchone()[0]
        corrupt.execute(
            "DELETE FROM mart_matrix_outcomes WHERE cell_id = ?", (cell,)
        )
        with pytest.raises(WarehouseQaError) as excinfo:
            run_matrix_qa(corrupt, result.matrix_id, strict=True)
        assert "row_counts" in {failure.check for failure in excinfo.value.failures}
        corrupt.close()

    def test_matrix_reports_render(self, matrix_loaded):
        conn, _matrix, result = matrix_loaded
        heatmap = named_report(conn, "matrix")
        assert result.matrix_id in heatmap.title
        assert len(heatmap.rows) == 4 and heatmap.render()
        cells = named_report(conn, "matrix-cells")
        assert len(cells.rows) == 4 and cells.render()

    def test_matrix_reports_refuse_empty_warehouse(self):
        from repro.warehouse import ensure_schema

        empty = sqlite3.connect(":memory:")
        ensure_schema(empty)
        with pytest.raises(LookupError, match="repro matrix"):
            named_report(empty, "matrix")
        empty.close()


class TestMatrixCli:
    def test_matrix_and_query_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        db = tmp_path / "matrix.sqlite"
        assert (
            main(
                [
                    "matrix",
                    "--profiles",
                    "baseline",
                    "--scale",
                    str(_SCALE.addresses),
                    "--seed",
                    str(_SEED),
                    "--db",
                    str(db),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1 cells loaded" in out and "baseline" in out
        assert main(["query", "matrix", "--db", str(db)]) == 0
        assert "baseline" in capsys.readouterr().out

    def test_bad_grid_and_bad_profile_exit_2(self, tmp_path, capsys):
        from repro.cli import main

        db = tmp_path / "unused.sqlite"
        assert main(["matrix", "--grid", "abc", "--db", str(db)]) == 2
        assert "expected RxC" in capsys.readouterr().err
        assert main(["matrix", "--profiles", "warp-drive", "--db", str(db)]) == 2
        capsys.readouterr()
