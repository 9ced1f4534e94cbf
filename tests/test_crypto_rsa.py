"""RSA and prime generation tests."""

import pytest

from repro.crypto.primes import generate_prime, is_probable_prime
from repro.crypto.rand import DeterministicRandom
from repro.crypto.rsa import SignatureError, derived_rsa_key, generate_rsa_key


def test_small_primes_recognised():
    for p in (2, 3, 5, 7, 97, 101, 65537):
        assert is_probable_prime(p)
    for n in (0, 1, 4, 100, 65535):
        assert not is_probable_prime(n)


def test_generate_prime_bit_length():
    rng = DeterministicRandom("primes")
    for bits in (64, 128, 256):
        p = generate_prime(bits, rng)
        assert p.bit_length() == bits
        assert is_probable_prime(p)


def test_generate_prime_too_small():
    with pytest.raises(ValueError):
        generate_prime(4, DeterministicRandom(0))


def test_rsa_sign_verify_roundtrip():
    key = generate_rsa_key(512, DeterministicRandom("rsa1"))
    signature = key.sign(b"hello world")
    key.public_key.verify(b"hello world", signature)


def test_rsa_rejects_modified_message():
    key = generate_rsa_key(512, DeterministicRandom("rsa2"))
    signature = key.sign(b"hello")
    with pytest.raises(SignatureError):
        key.public_key.verify(b"h3110", signature)


def test_rsa_rejects_wrong_key():
    key_a = generate_rsa_key(512, DeterministicRandom("rsa3"))
    key_b = generate_rsa_key(512, DeterministicRandom("rsa4"))
    signature = key_a.sign(b"msg")
    with pytest.raises(SignatureError):
        key_b.public_key.verify(b"msg", signature)


def test_rsa_rejects_bad_signature_length():
    key = generate_rsa_key(512, DeterministicRandom("rsa5"))
    with pytest.raises(SignatureError):
        key.public_key.verify(b"msg", b"\x00" * 10)


def test_rsa_modulus_exact_bits():
    key = generate_rsa_key(768, DeterministicRandom("rsa6"))
    assert key.n.bit_length() == 768


def test_rsa_deterministic_from_seed():
    key_a = generate_rsa_key(512, DeterministicRandom("same-seed"))
    key_b = generate_rsa_key(512, DeterministicRandom("same-seed"))
    assert key_a.n == key_b.n


# -- key generation cost and derived keys ------------------------------------------


@pytest.mark.parametrize("bits", [512, 768, 1024])
def test_rsa_key_takes_exactly_two_primes(bits, monkeypatch):
    """No pair is discarded for its size: one key, two primes."""
    from repro.crypto import rsa

    calls = []

    def counting_generate_prime(prime_bits, rng):
        calls.append(prime_bits)
        return generate_prime(prime_bits, rng)

    monkeypatch.setattr(rsa, "generate_prime", counting_generate_prime)
    for seed in range(4):
        calls.clear()
        key = generate_rsa_key(bits, DeterministicRandom(("two-primes", bits, seed)))
        assert key.n.bit_length() == bits
        assert calls == [bits // 2, bits - bits // 2]


def test_generated_primes_pass_the_full_test(monkeypatch):
    """The sieve only pre-filters: every result passed 24 MR rounds."""
    import inspect

    from repro.crypto import primes

    assert inspect.signature(is_probable_prime).parameters["rounds"].default == 24
    verdicts = []

    def recording_test(n, *args, **kwargs):
        assert not args and "rounds" not in kwargs, "round count overridden"
        verdict = is_probable_prime(n, **kwargs)
        verdicts.append((n, verdict))
        return verdict

    monkeypatch.setattr(primes, "is_probable_prime", recording_test)
    rng = DeterministicRandom("sieved-primes")
    for bits in (8, 16, 64, 256, 512):
        for _ in range(3):
            p = generate_prime(bits, rng)
            assert verdicts[-1] == (p, True)
            assert p >> (bits - 2) == 3, "top two bits must be set"
            assert is_probable_prime(p, rounds=24, rng=DeterministicRandom(p))
    # The gcd sieve kept every small-factor candidate away from MR.
    for n, _ in verdicts:
        assert all(n % q for q in (3, 5, 7, 11, 13, 229))


def test_derived_key_is_one_object_per_label():
    key = derived_rsa_key(512, "derived-key-test")
    assert derived_rsa_key(512, "derived-key-test") is key
    assert key == generate_rsa_key(512, DeterministicRandom("derived-key-test"))
    assert derived_rsa_key(512, "derived-key-test-2").n != key.n
    assert derived_rsa_key(768, "derived-key-test").n != key.n


def test_provider_key_table_equals_its_definition(monkeypatch):
    """The fixture table holds what generation finds, for exactly the
    labels a world build requests: no drifted entry, no dead one."""
    from repro.crypto.provider_keys import PROVIDER_KEY_PRIMES
    from repro.internet.generator import build_world
    from repro.tls import certificates
    from tests.conftest import TINY_SCALE

    def entry(bits, label):
        key = generate_rsa_key(bits, DeterministicRandom(label))
        return f'    ({bits}, "{label}"): ({key.p:#x}, {key.q:#x}),'

    requested = set()

    def recording(bits, label):
        if not label.startswith("ca-"):
            requested.add((bits, label))
        return derived_rsa_key(bits, label)

    monkeypatch.setattr(certificates, "derived_rsa_key", recording)
    build_world(week=18, scale=TINY_SCALE, seed=0)
    missing = sorted(requested - set(PROVIDER_KEY_PRIMES))
    dead = sorted(set(PROVIDER_KEY_PRIMES) - requested)
    assert not missing, "add to crypto/provider_keys.py:\n" + "\n".join(
        entry(*key) for key in missing
    )
    assert not dead, "no world build requests these; remove from crypto/provider_keys.py:\n" + (
        "\n".join(f'    ({bits}, "{label}"): ...' for bits, label in dead)
    )

    for bits, label in PROVIDER_KEY_PRIMES:
        # Dataclass equality: n, e, d, p and q, field for field.
        assert derived_rsa_key(bits, label) == generate_rsa_key(
            bits, DeterministicRandom(label)
        ), f"crypto/provider_keys.py drifted from its derivation; the line is\n{entry(bits, label)}"
