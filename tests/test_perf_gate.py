"""The legacy bench's real-crypto section and the gate that holds it."""

from repro.experiments.campaign import CampaignConfig
from repro.internet.providers import Scale
from repro.perf import REAL_CRYPTO_SAMPLE, _bench_crypto, check_benchmarks


def test_crypto_section_measures_real_handshakes():
    config = CampaignConfig(week=18, scale=Scale(addresses=200_000, ases=4_000, domains=200_000))
    section = _bench_crypto(config)
    assert 0 < section["real_handshakes"] <= REAL_CRYPTO_SAMPLE
    assert section["real_handshakes_per_sec"] > 0
    assert section["aes128gcm_seal_mb_per_sec"] > 0


def test_crypto_rates_are_held_to_the_baseline_when_it_has_them():
    baseline = {"crypto": {"aes128gcm_seal_mb_per_sec": 4.0, "real_handshakes_per_sec": 200.0}}
    held = {"crypto": {"aes128gcm_seal_mb_per_sec": 3.3, "real_handshakes_per_sec": 161.0}}
    assert check_benchmarks(held, baseline=baseline) == []
    slow = {"crypto": {"aes128gcm_seal_mb_per_sec": 3.1, "real_handshakes_per_sec": 159.0}}
    failures = check_benchmarks(slow, baseline=baseline)
    assert len(failures) == 2
    assert "crypto.aes128gcm_seal_mb_per_sec" in failures[0]
    assert "crypto.real_handshakes_per_sec" in failures[1]


def test_baseline_without_a_crypto_section_passes():
    results = {"crypto": {"aes128gcm_seal_mb_per_sec": 0.1, "real_handshakes_per_sec": 1.0}}
    assert check_benchmarks(results, baseline={"zmap_probe_rate": {}}) == []
    assert check_benchmarks(results, baseline=None) == []
