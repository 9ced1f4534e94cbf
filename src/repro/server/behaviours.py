"""Behaviour objects of the simulated servers, shared between endpoints.

A generated world binds thousands of TCP and QUIC servers, but only a
few behaviours: a group's SNI policy, the HTTP and HTTP/3 responders for
one ``Server`` value, a load balancer's SNI drop share.  Each is a frozen
slotted callable here, so equal fields make equal (hashable) objects,
which :func:`repro.internet.generator.build_world` shares together with
the TLS configurations built over them.  What makes an endpoint its own
is its row: a seed, and the ``(chain, key)`` it serves where the
selector names none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.crypto.rand import derive_seed
from repro.http import h3
from repro.http.altsvc import AltSvcEntry, format_alt_svc
from repro.http.h1 import HttpRequest, HttpResponse
from repro.tls.alerts import AlertDescription, AlertError
from repro.tls.certificates import Certificate

__all__ = ["H3Handler", "HttpHandler", "RefuseAll", "SniDrop", "SniPolicy"]


@dataclass(frozen=True)
class SniPolicy:
    """``select_certificate``: a group's SNI policy in front of the
    endpoint's own certificate (``None`` serves it)."""

    __slots__ = ("group_key", "policy", "alert_reason", "no_sni_pair", "alert_rate", "other_rate")
    group_key: str
    policy: str
    alert_reason: str
    no_sni_pair: Optional[Tuple[Certificate, object]]
    alert_rate: float
    other_rate: float

    def __call__(self, sni: Optional[str]):
        if sni is None:
            if self.no_sni_pair is not None:
                return [self.no_sni_pair[0]], self.no_sni_pair[1]
            if self.policy == "require":
                raise AlertError(AlertDescription.HANDSHAKE_FAILURE, self.alert_reason)
        elif self.alert_rate or self.other_rate:
            bucket = derive_seed("snifail", self.group_key, sni) % 10_000
            if bucket < self.alert_rate * 10_000:
                raise AlertError(AlertDescription.HANDSHAKE_FAILURE, self.alert_reason)
            if bucket < (self.alert_rate + self.other_rate) * 10_000:
                raise AlertError(AlertDescription.INTERNAL_ERROR, "internal error")
        return None


@dataclass(frozen=True)
class RefuseAll:
    """``select_certificate`` of a parked pool that alerts every handshake."""

    __slots__ = ("alert_reason",)
    alert_reason: str

    def __call__(self, sni: Optional[str]):
        raise AlertError(AlertDescription.HANDSHAKE_FAILURE, self.alert_reason)


@dataclass(frozen=True)
class HttpHandler:
    """``http_handler``: HTTP/1.1 200 with the Server and Alt-Svc headers."""

    __slots__ = ("server_value", "altsvc_tokens")
    server_value: Optional[str]
    altsvc_tokens: Optional[Tuple[str, ...]]

    def __call__(self, request: HttpRequest, sni: Optional[str]) -> HttpResponse:
        headers = []
        if self.server_value:
            headers.append(("Server", self.server_value))
        if self.altsvc_tokens:
            entries = [AltSvcEntry(alpn=token, port=443) for token in self.altsvc_tokens]
            headers.append(("Alt-Svc", format_alt_svc(entries)))
        return HttpResponse(status=200, reason="OK", headers=headers)


@dataclass(frozen=True)
class H3Handler:
    """``app_handler``: an HTTP/3 200 (with a server header) per request stream."""

    __slots__ = ("server_value",)
    server_value: Optional[str]

    def __call__(self, alpn: Optional[str], stream_id: int, data: bytes) -> Optional[bytes]:
        if stream_id % 4 != 0:
            return None  # only bidi request streams get replies
        try:
            h3.decode_request(data)
        except h3.H3Error:
            return None
        headers = [("server", self.server_value)] if self.server_value else []
        return h3.encode_response(200, headers)


@dataclass(frozen=True)
class SniDrop:
    """``drop_predicate``: a deterministic share of SNI handshakes goes unanswered."""

    __slots__ = ("group_key", "rate")
    group_key: str
    rate: float

    def __call__(self, sni: Optional[str]) -> bool:
        if sni is None:
            return False
        return (derive_seed("drop", self.group_key, sni) % 10_000) < self.rate * 10_000
