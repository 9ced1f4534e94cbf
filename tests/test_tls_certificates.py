"""Certificate, PKI and hostname matching tests."""

import pytest

from repro.tls.certificates import (
    Certificate,
    CertificateAuthority,
    hostname_matches,
    make_self_signed,
    verify_chain,
)


@pytest.fixture(scope="module")
def ca():
    return CertificateAuthority(seed="cert-tests", key_bits=512)


def test_issue_and_verify(ca):
    cert, _key = ca.issue("site.example", ["site.example", "*.site.example"], key_bits=512)
    assert verify_chain([cert, ca.root], [ca.root], server_name="site.example") == []
    assert verify_chain([cert, ca.root], [ca.root], server_name="www.site.example") == []


def test_hostname_mismatch_reported(ca):
    cert, _key = ca.issue("a.example", ["a.example"], key_bits=512)
    errors = verify_chain([cert, ca.root], [ca.root], server_name="b.example")
    assert any("hostname" in e for e in errors)


def test_untrusted_issuer(ca):
    other = CertificateAuthority(name="Other CA", seed="other", key_bits=512)
    cert, _key = other.issue("x.example", ["x.example"], key_bits=512)
    errors = verify_chain([cert], [ca.root], server_name="x.example")
    assert any("not trusted" in e for e in errors)


def test_tampered_signature_detected(ca):
    cert, _key = ca.issue("t.example", ["t.example"], key_bits=512)
    tampered = Certificate(**{**cert.__dict__, "subject": "evil.example"})
    errors = verify_chain([tampered, ca.root], [ca.root])
    assert any("bad signature" in e for e in errors)


def test_self_signed_detected():
    cert, _key = make_self_signed("standalone.example", key_bits=512)
    assert cert.self_signed
    errors = verify_chain([cert], [], server_name="standalone.example")
    assert any("self-signed" in e for e in errors)


def test_expiry_window(ca):
    cert, _key = ca.issue("w.example", ["w.example"], not_before=10, not_after=12, key_bits=512)
    assert verify_chain([cert, ca.root], [ca.root], week=11) == []
    errors = verify_chain([cert, ca.root], [ca.root], week=20)
    assert any("expired" in e for e in errors)


def test_one_signature_walk_per_chain_whatever_the_name(ca, signature_checks):
    cert, _key = ca.issue("many.example", ["*.many.example"], key_bits=512)
    chain = [cert, ca.root]
    for index in range(50):
        assert verify_chain(chain, [ca.root], server_name=f"h{index}.many.example") == []
    assert len(signature_checks) == len(chain)
    errors = verify_chain(chain, [ca.root], server_name="elsewhere.example")
    assert errors == ["hostname 'elsewhere.example' not covered by certificate"]
    assert verify_chain(chain, [ca.root], server_name="again.many.example") == []
    assert len(signature_checks) == len(chain)


def test_error_order_and_no_leak_between_names(ca):
    cert, _key = ca.issue("o.example", ["o.example"], not_before=10, not_after=12, key_bits=512)
    tampered = Certificate(**{**cert.__dict__, "serial": cert.serial + 1})
    chain = [tampered, ca.root]
    bad_signature = "bad signature on certificate 'o.example'"
    assert verify_chain(chain, [ca.root], server_name="x.example", week=20) == [
        "hostname 'x.example' not covered by certificate",
        "certificate expired or not yet valid",
        bad_signature,
    ]
    # The memoised walk carries neither the name nor the week of the
    # call that filled it.
    assert verify_chain(chain, [ca.root], server_name="o.example", week=11) == [bad_signature]
    assert verify_chain([], [ca.root], server_name="o.example") == ["empty certificate chain"]


def test_encode_decode_roundtrip(ca):
    cert, _key = ca.issue("rt.example", ["rt.example", "alt.example"], key_bits=512)
    decoded = Certificate.decode(cert.encode())
    assert decoded == cert
    assert decoded.fingerprint() == cert.fingerprint()


def test_fingerprint_unique(ca):
    cert_a, _ = ca.issue("fa.example", ["fa.example"], key_bits=512)
    cert_b, _ = ca.issue("fb.example", ["fb.example"], key_bits=512)
    assert cert_a.fingerprint() != cert_b.fingerprint()


@pytest.mark.parametrize(
    "pattern,hostname,matches",
    [
        ("example.com", "example.com", True),
        ("example.com", "EXAMPLE.COM", True),
        ("example.com", "www.example.com", False),
        ("*.example.com", "www.example.com", True),
        ("*.example.com", "example.com", False),
        ("*.example.com", "a.b.example.com", False),
        ("*.com", "foo.com", True),
        ("*.com", "a.b.com", False),
        ("*.", "anything", False),
    ],
)
def test_hostname_matching(pattern, hostname, matches):
    assert hostname_matches(pattern, hostname) is matches
