"""The HTTP Alternative Services header (RFC 7838).

``Alt-Svc: h3-29=":443"; ma=86400, h3-27=":443"`` — receiving an entry
whose ALPN token indicates HTTP/3 implies QUIC support (paper §2.2),
which is the entire basis of the TLS-over-TCP discovery method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = ["AltSvcEntry", "parse_alt_svc", "format_alt_svc", "h3_alpn_tokens"]


@dataclass(frozen=True)
class AltSvcEntry:
    alpn: str
    host: str = ""  # empty host: same host
    port: int = 443
    max_age: Optional[int] = None

    @property
    def indicates_http3(self) -> bool:
        return self.alpn == "h3" or self.alpn.startswith("h3-") or self.alpn == "quic"


def _percent_decode(token: str) -> str:
    if "%" not in token:
        return token
    out = []
    i = 0
    while i < len(token):
        if token[i] == "%" and i + 2 < len(token):
            # A malformed escape (non-hex digits) is kept literally
            # rather than rejecting the whole header: scanners see
            # plenty of sloppy Alt-Svc values in the wild.
            try:
                out.append(chr(int(token[i + 1 : i + 3], 16)))
                i += 3
                continue
            except ValueError:
                pass
        out.append(token[i])
        i += 1
    return "".join(out)


def parse_alt_svc(value: str) -> List[AltSvcEntry]:
    """Parse an Alt-Svc header value into entries; 'clear' yields []."""
    value = value.strip()
    if not value or value.lower() == "clear":
        return []
    entries: List[AltSvcEntry] = []
    for part in _split_commas(value):
        fields = [f.strip() for f in part.split(";")]
        name, _, authority = fields[0].partition("=")
        authority = authority.strip().strip('"')
        host, _, port_text = authority.rpartition(":")
        try:
            port = int(port_text) if port_text else 443
        except ValueError:
            continue
        max_age: Optional[int] = None
        for param in fields[1:]:
            key, _, pvalue = param.partition("=")
            if key.strip().lower() == "ma":
                try:
                    max_age = int(pvalue.strip().strip('"'))
                except ValueError:
                    pass
        entries.append(
            AltSvcEntry(
                alpn=_percent_decode(name.strip()), host=host, port=port, max_age=max_age
            )
        )
    return entries


def _split_commas(value: str) -> List[str]:
    """Split on commas not inside quoted strings.

    A piece with an odd number of quotes ends inside a quoted string, so
    the comma after it is literal and the next piece joins it.
    """
    parts = []
    open_part = None
    for piece in value.split(","):
        if open_part is not None:
            piece = open_part + "," + piece
        if piece.count('"') % 2:
            open_part = piece
        else:
            open_part = None
            parts.append(piece)
    if open_part is not None:
        parts.append(open_part)
    return [p for p in (part.strip() for part in parts) if p]


def format_alt_svc(entries: List[AltSvcEntry]) -> str:
    parts = []
    for entry in entries:
        text = f'{entry.alpn}="{entry.host}:{entry.port}"'
        if entry.max_age is not None:
            text += f"; ma={entry.max_age}"
        parts.append(text)
    return ", ".join(parts)


def h3_alpn_tokens(entries: List[AltSvcEntry]) -> List[str]:
    """The QUIC-indicating ALPN tokens, preserving order, de-duplicated."""
    seen = []
    for entry in entries:
        if entry.indicates_http3 and entry.alpn not in seen:
            seen.append(entry.alpn)
    return seen
