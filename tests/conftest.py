"""Shared fixtures: a small-scale simulated Internet and campaign.

The tiny scale keeps the full test suite fast while exercising every
code path; benchmarks use the default (paper-shape) scale.
"""

import pytest

from repro.crypto.rsa import RsaPublicKey
from repro.experiments import get_campaign
from repro.internet.providers import Scale

TINY_SCALE = Scale(addresses=20_000, ases=200, domains=20_000)


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
