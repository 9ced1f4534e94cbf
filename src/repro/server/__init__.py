"""Simulated server deployments.

- :mod:`repro.server.tcp443` — TLS-over-TCP servers with HTTP/1.1
  responses carrying ``Alt-Svc`` and ``Server`` headers,
- :mod:`repro.server.profiles` — per-implementation behaviour profiles
  (Cloudflare/quiche, Google, Akamai, Fastly, Facebook proxygen/mvfst,
  LiteSpeed/LSQUIC, nginx, Caddy, h2o, …) encoding the quirks the paper
  observes,
- :mod:`repro.server.behaviours` — the certificate selectors, HTTP and
  HTTP/3 responders and SNI drop predicate a generated world shares
  between its endpoints.
"""

from repro.server.tcp443 import Tcp443Config, Tcp443Server

__all__ = ["Tcp443Config", "Tcp443Server"]
