"""Tests for the wire-format conformance subsystem (repro.conformance).

Covers the golden-vector corpus, property tests for the boundary
behaviour of the varint / transport-parameter / QPACK-integer /
Alt-Svc codecs, determinism and no-crash guarantees of the mutation
fuzzer (serial and sharded), the serial-vs-parallel differential
oracle, report determinism, and the Table-3 error-classification
mapping shared with QScanner.
"""

import pytest

from repro.conformance import (
    VECTORS,
    XorShift64,
    build_conformance_report,
    build_targets,
    conformance_ok,
    render_conformance_json,
    run_fuzz,
    run_vectors,
)
from repro.conformance.differential import Artefacts, differential_result
from repro.observability.metrics import MetricsRegistry

from tests.conftest import BASELINE_CONFIG


# -- golden vectors -----------------------------------------------------------


class TestGoldenVectors:
    def test_every_vector_passes(self):
        registry = MetricsRegistry()
        results = run_vectors(registry)
        failures = [r for r in results if not r.ok]
        assert not failures, "\n".join(f"{r.name}: {r.error}" for r in failures)
        assert registry.counter_value("conform.vectors_ok") == len(VECTORS)

    def test_corpus_covers_every_protocol_layer(self):
        groups = {vector.group for vector in VECTORS}
        assert {
            "varint",
            "quic-initial",
            "packet",
            "tparams",
            "frames",
            "altsvc",
            "dns",
            "qpack",
            "tls",
            "regression",
        } <= groups

    def test_rfc9001_appendix_a_vectors_present(self):
        names = {vector.name for vector in VECTORS}
        assert {
            "rfc9001-a1-key-schedule",
            "rfc9001-a2-client-initial",
            "rfc9001-a3-server-initial",
            "rfc9001-a4-retry",
            "rfc9001-a5-chacha20",
        } <= names

    def test_failing_check_is_reported_not_raised(self):
        from repro.conformance.vectors import GoldenVector, VectorResult

        def boom():
            raise AssertionError("deliberate")

        vector = GoldenVector(name="boom", group="test", check=boom)
        registry = MetricsRegistry()
        from repro.conformance import vectors as vectors_module

        original = vectors_module.VECTORS
        vectors_module.VECTORS = (vector,)
        try:
            results = run_vectors(registry)
        finally:
            vectors_module.VECTORS = original
        assert results == [
            VectorResult(name="boom", group="test", error="AssertionError: deliberate")
        ]
        assert registry.counter_value("conform.vectors_fail", group="test") == 1


# -- property tests: codec boundaries -----------------------------------------


class TestVarintProperties:
    WIDTH_BOUNDARIES = [
        (0, 1),
        (63, 1),
        (64, 2),
        (16383, 2),
        (16384, 4),
        (1073741823, 4),
        (1073741824, 8),
        ((1 << 62) - 1, 8),
    ]

    @pytest.mark.parametrize("value,width", WIDTH_BOUNDARIES)
    def test_boundary_widths(self, value, width):
        from repro.quic.varint import decode_varint, encode_varint, varint_length

        wire = encode_varint(value)
        assert len(wire) == width == varint_length(value)
        decoded, consumed = decode_varint(wire)
        assert (decoded, consumed) == (value, width)

    def test_values_above_max_rejected(self):
        from repro.quic.varint import VARINT_MAX, encode_varint

        with pytest.raises(ValueError):
            encode_varint(VARINT_MAX + 1)
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_random_round_trip_seeded(self):
        from repro.quic.varint import decode_varint, encode_varint

        rng = XorShift64(424242)
        for _ in range(500):
            # Bias across all four widths by masking to a random bit size.
            bits = 1 + rng.below(62)
            value = rng.next_u64() & ((1 << bits) - 1)
            decoded, consumed = decode_varint(encode_varint(value))
            assert decoded == value
            assert consumed == len(encode_varint(value))


class TestTransportParameterProperties:
    def test_max_size_parameters_round_trip(self):
        from repro.quic.transport_params import TransportParameters
        from repro.quic.varint import VARINT_MAX

        params = TransportParameters(
            original_destination_connection_id=bytes(range(20)),
            max_idle_timeout=VARINT_MAX,
            stateless_reset_token=b"\xff" * 16,
            max_udp_payload_size=VARINT_MAX,
            initial_max_data=VARINT_MAX,
            initial_max_stream_data_bidi_local=VARINT_MAX,
            initial_max_stream_data_bidi_remote=VARINT_MAX,
            initial_max_stream_data_uni=VARINT_MAX,
            initial_max_streams_bidi=VARINT_MAX,
            initial_max_streams_uni=VARINT_MAX,
            ack_delay_exponent=20,
            max_ack_delay=VARINT_MAX,
            disable_active_migration=True,
            preferred_address=b"\x00" * 41,
            active_connection_id_limit=VARINT_MAX,
            initial_source_connection_id=b"\xaa" * 20,
            retry_source_connection_id=b"\xbb" * 20,
        )
        assert TransportParameters.decode(params.encode()) == params

    def test_boundary_width_values_round_trip_seeded(self):
        from repro.quic.transport_params import TransportParameters

        rng = XorShift64(9000)
        boundaries = [0, 63, 64, 16383, 16384, 1073741823, 1073741824, (1 << 62) - 1]
        for _ in range(50):
            params = TransportParameters(
                max_idle_timeout=rng.choice(boundaries),
                initial_max_data=rng.choice(boundaries),
                initial_max_streams_bidi=rng.choice(boundaries),
            )
            assert TransportParameters.decode(params.encode()) == params

    def test_empty_extension_decodes_to_defaults(self):
        from repro.quic.transport_params import TransportParameters

        assert TransportParameters.decode(b"") == TransportParameters()


class TestQpackIntegerProperties:
    @pytest.mark.parametrize("prefix_bits", [4, 5, 6, 7])
    def test_prefix_boundaries_round_trip(self, prefix_bits):
        from repro.http.qpack import _decode_prefixed_int, _encode_prefixed_int

        limit = (1 << prefix_bits) - 1
        for value in (0, 1, limit - 1, limit, limit + 1, limit + 127, limit + 128, 16383, 1 << 20):
            wire = _encode_prefixed_int(value, prefix_bits, 0)
            decoded, offset = _decode_prefixed_int(wire, 0, prefix_bits)
            assert decoded == value
            assert offset == len(wire)
            # Values below the prefix limit must use exactly one byte.
            if value < limit:
                assert len(wire) == 1

    def test_random_round_trip_seeded(self):
        from repro.http.qpack import _decode_prefixed_int, _encode_prefixed_int

        rng = XorShift64(1)
        for _ in range(500):
            prefix_bits = 4 + rng.below(4)
            value = rng.next_u64() & ((1 << (1 + rng.below(30))) - 1)
            wire = _encode_prefixed_int(value, prefix_bits, 0)
            assert _decode_prefixed_int(wire, 0, prefix_bits) == (value, len(wire))


class TestAltSvcProperties:
    def test_round_trip_seeded(self):
        from repro.http.altsvc import AltSvcEntry, format_alt_svc, parse_alt_svc

        rng = XorShift64(7)
        alpns = ["h3", "h3-29", "h3-27", "h2", "quic", "hq-interop"]
        hosts = ["", "alt.example.com", "cdn.example.net"]
        for _ in range(100):
            entries = [
                AltSvcEntry(
                    alpn=rng.choice(alpns),
                    host=rng.choice(hosts),
                    port=1 + rng.below(65535),
                    max_age=None if rng.chance(1, 2) else rng.below(1 << 31),
                )
                for _ in range(1 + rng.below(4))
            ]
            assert parse_alt_svc(format_alt_svc(entries)) == entries

    def test_clear_and_empty(self):
        from repro.http.altsvc import parse_alt_svc

        assert parse_alt_svc("clear") == []
        assert parse_alt_svc("") == []


# -- fuzzer -------------------------------------------------------------------


class TestFuzzer:
    def test_every_parser_entry_point_is_targeted(self):
        names = {target.name for target in build_targets()}
        assert names == {
            "quic.varint",
            "quic.packet",
            "quic.transport_params",
            "quic.frames",
            "http.altsvc",
            "http.qpack",
            "dns.records",
            "tls.messages",
            "tls.extensions",
            "tls.record",
            "netsim.paths",
        }

    def test_no_crashes_tier1(self):
        result = run_fuzz(seed=9000, iterations=1500)
        assert result.ok, [c.repro_hint(result.seed) for c in result.crashes]

    def test_same_seed_same_result(self):
        first = run_fuzz(seed=1234, iterations=400)
        second = run_fuzz(seed=1234, iterations=400)
        assert first.registry.snapshot() == second.registry.snapshot()
        assert [(c.module, c.iteration, c.data) for c in first.crashes] == [
            (c.module, c.iteration, c.data) for c in second.crashes
        ]

    def test_counters_account_for_every_iteration(self):
        iterations = 600
        result = run_fuzz(seed=5, iterations=iterations)
        snapshot = result.registry.snapshot()["counters"]
        total = sum(
            value
            for key, value in snapshot.items()
            if key.startswith(("conform.fuzz_ok", "conform.fuzz_rejects", "conform.fuzz_crashes"))
        )
        assert total == iterations

    def test_mutate_is_deterministic_and_productive(self):
        from repro.conformance.fuzzer import mutate

        seed_input = bytes(range(32))
        outputs = {mutate(seed_input, XorShift64.for_iteration(77, i)) for i in range(50)}
        # Deterministic: replaying an iteration reproduces its mutant.
        assert mutate(seed_input, XorShift64.for_iteration(77, 13)) in outputs
        # Productive: mutants differ from each other and the seed.
        assert len(outputs) > 25
        assert seed_input not in outputs or len(outputs) > 1

    @pytest.mark.slow_fuzz
    @pytest.mark.parametrize("seed", [1, 9000, 424242])
    def test_deep_fuzz_no_crashes(self, seed):
        result = run_fuzz(seed=seed, iterations=20_000)
        assert result.ok, [c.repro_hint(seed) for c in result.crashes]


# -- differential oracle ------------------------------------------------------


class TestDifferential:
    def test_serial_equals_parallel_campaign(self, identity):
        """``repro conform``'s verdict over the identity registry's
        1:100,000 serial and three-worker runs."""
        serial = identity.run(BASELINE_CONFIG).artefacts
        result = differential_result(
            serial, identity.run(BASELINE_CONFIG, "fork3").artefacts, workers=3
        )
        assert result.ok, result.mismatches[:5]
        assert result.records_compared > 0
        # Every pipeline stage produced records at the test scale, and
        # the DNS entry still counts every listed name.
        assert all(count > 0 for count in result.stage_records.values())
        assert result.stage_records["all_dns_records"] == 26_500
        short = dict(serial.records, qscan_sni_v4=serial.records["qscan_sni_v4"][1:])
        assert differential_result(serial, Artefacts(short, serial.files), workers=3).mismatches


# -- report -------------------------------------------------------------------


class TestReport:
    def _run(self):
        registry = MetricsRegistry()
        vectors = run_vectors(registry)
        fuzz = run_fuzz(seed=9000, iterations=300, registry=registry)
        return registry, vectors, fuzz

    def test_report_is_deterministic(self):
        first_registry, first_vectors, first_fuzz = self._run()
        second_registry, second_vectors, second_fuzz = self._run()
        assert build_conformance_report(
            first_vectors, first_fuzz, None
        ) == build_conformance_report(second_vectors, second_fuzz, None)
        assert render_conformance_json(
            first_vectors, first_fuzz, None, first_registry
        ) == render_conformance_json(second_vectors, second_fuzz, None, second_registry)

    def test_verdict_and_counters(self):
        registry, vectors, fuzz = self._run()
        report = build_conformance_report(vectors, fuzz, None)
        assert report.endswith("verdict: OK")
        assert "differential: skipped" in report
        assert conformance_ok(vectors, fuzz, None)
        assert registry.counter_value("conform.vectors_ok") == len(VECTORS)
        snapshot = registry.snapshot(include_volatile=False)["counters"]
        assert any(key.startswith("conform.fuzz_rejects") for key in snapshot)

    def test_crash_fails_the_verdict(self):
        from repro.conformance.fuzzer import FuzzCrash, FuzzResult

        registry, vectors, _ = self._run()
        broken = FuzzResult(
            seed=9000,
            iterations=1,
            crashes=[
                FuzzCrash(
                    module="quic.frames",
                    iteration=0,
                    data=b"\x01\x40\x00",
                    error="AssertionError: frame round-trip",
                )
            ],
            registry=registry,
        )
        assert not conformance_ok(vectors, broken, None)
        report = build_conformance_report(vectors, broken, None)
        assert report.endswith("verdict: FAILED")
        assert "CRASH" in report

    def test_cli_conform_smoke(self, capsys):
        from repro.cli import main

        code = main(
            ["conform", "--seed", "9000", "--iterations", "300", "--skip-differential"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: OK" in out


# -- error classification (Table 3 buckets) -----------------------------------


class TestErrorClassification:
    def test_every_transport_error_code_maps_to_a_bucket(self):
        from repro.quic.errors import QuicError, TransportErrorCode
        from repro.scanners.results import QScanOutcome, table3_bucket

        for code in TransportErrorCode:
            bucket = table3_bucket(QuicError(int(code), reason=code.name))
            assert bucket is QScanOutcome.OTHER

    def test_crypto_error_0x128_has_its_own_bucket(self):
        from repro.quic.errors import (
            CRYPTO_ERROR_HANDSHAKE_FAILURE,
            QuicError,
            crypto_error,
            is_crypto_error,
            tls_alert_of,
        )
        from repro.scanners.results import QScanOutcome, table3_bucket

        assert CRYPTO_ERROR_HANDSHAKE_FAILURE == 0x128
        assert crypto_error(0x28) == 0x128
        assert is_crypto_error(0x128) and not is_crypto_error(0x99)
        assert tls_alert_of(0x128) == 0x28
        assert tls_alert_of(0x0A) is None
        bucket = table3_bucket(QuicError(CRYPTO_ERROR_HANDSHAKE_FAILURE))
        assert bucket is QScanOutcome.CRYPTO_ERROR_0X128
        # Any other crypto error is OTHER, not 0x128.
        assert table3_bucket(QuicError(crypto_error(50))) is QScanOutcome.OTHER
        with pytest.raises(ValueError):
            crypto_error(0x1FF)

    def test_every_alert_description_maps_to_a_bucket(self):
        from repro.scanners.results import QScanOutcome, table3_bucket
        from repro.tls.alerts import AlertDescription, AlertError

        for description in AlertDescription:
            bucket = table3_bucket(AlertError(description, "test"))
            if description is AlertDescription.HANDSHAKE_FAILURE:
                assert bucket is QScanOutcome.CRYPTO_ERROR_0X128
            else:
                assert bucket is QScanOutcome.OTHER

    def test_unknown_alert_codes_still_classify(self):
        from repro.scanners.results import QScanOutcome, table3_bucket
        from repro.tls.alerts import AlertError

        assert table3_bucket(AlertError(0xAA, "unknown")) is QScanOutcome.OTHER
        assert table3_bucket(AlertError(0x28, "raw int")) is QScanOutcome.CRYPTO_ERROR_0X128

    def test_timeout_and_version_mismatch_buckets(self):
        from repro.quic.connection import HandshakeTimeout, VersionMismatchError
        from repro.scanners.results import QScanOutcome, table3_bucket

        assert table3_bucket(HandshakeTimeout()) is QScanOutcome.TIMEOUT
        assert table3_bucket(VersionMismatchError([0xFF00001D])) is QScanOutcome.VERSION_MISMATCH

    def test_typed_parser_rejects_classify_as_other(self):
        from repro.dns.records import DnsWireError
        from repro.http.qpack import QpackError
        from repro.quic.frames import FrameDecodeError
        from repro.quic.packet import PacketDecodeError
        from repro.quic.transport_params import TransportParameterError
        from repro.scanners.results import QScanOutcome, table3_bucket
        from repro.tls.messages import MessageDecodeError
        from repro.tls.record import RecordDecodeError

        for error_class in (
            FrameDecodeError,
            PacketDecodeError,
            TransportParameterError,
            QpackError,
            DnsWireError,
            MessageDecodeError,
            RecordDecodeError,
        ):
            assert table3_bucket(error_class("malformed")) is QScanOutcome.OTHER

    def test_every_failure_bucket_is_reachable(self):
        from repro.quic.connection import HandshakeTimeout, VersionMismatchError
        from repro.quic.errors import CRYPTO_ERROR_HANDSHAKE_FAILURE, QuicError
        from repro.scanners.results import QScanOutcome, table3_bucket

        reached = {
            table3_bucket(error)
            for error in (
                HandshakeTimeout(),
                VersionMismatchError([1]),
                QuicError(CRYPTO_ERROR_HANDSHAKE_FAILURE),
                ValueError("garbage"),
            )
        }
        assert reached == set(QScanOutcome) - {QScanOutcome.SUCCESS}


# -- RNG ----------------------------------------------------------------------


class TestXorShift64:
    def test_deterministic_stream(self):
        assert [XorShift64(42).next_u64() for _ in range(5)] == [
            XorShift64(42).next_u64() for _ in range(5)
        ]

    def test_zero_seed_is_valid(self):
        rng = XorShift64(0)
        values = {rng.next_u64() for _ in range(100)}
        assert len(values) == 100

    def test_below_and_choice_in_range(self):
        rng = XorShift64(9000)
        for _ in range(200):
            assert 0 <= rng.below(7) < 7
            assert rng.choice(["a", "b", "c"]) in ("a", "b", "c")
        assert len(rng.bytes(16)) == 16

    def test_for_iteration_streams_are_independent_of_partitioning(self):
        # The stream for iteration i depends only on (seed, i) — this is
        # what makes shard boundaries invisible to fuzz results.
        first = XorShift64.for_iteration(9000, 17).next_u64()
        second = XorShift64.for_iteration(9000, 17).next_u64()
        assert first == second
        assert first != XorShift64.for_iteration(9000, 18).next_u64()
        assert first != XorShift64.for_iteration(9001, 17).next_u64()
