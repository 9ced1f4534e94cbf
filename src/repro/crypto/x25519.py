"""X25519 Diffie-Hellman (RFC 7748), implemented from scratch.

Used as the (single) supported TLS 1.3 key-exchange group, mirroring
the paper's scanners which offered X25519 and found it accepted by
close to all targets (§5.1).
"""

from __future__ import annotations

__all__ = ["x25519", "x25519_base", "X25519_BASEPOINT"]

_P = 2**255 - 19
_A24 = 121665

X25519_BASEPOINT = (9).to_bytes(32, "little")


def _decode_scalar(scalar: bytes) -> int:
    if len(scalar) != 32:
        raise ValueError("X25519 scalar must be 32 bytes")
    k = bytearray(scalar)
    k[0] &= 248
    k[31] &= 127
    k[31] |= 64
    return int.from_bytes(bytes(k), "little")


def _decode_u(u: bytes) -> int:
    if len(u) != 32:
        raise ValueError("X25519 u-coordinate must be 32 bytes")
    value = int.from_bytes(u, "little")
    value &= (1 << 255) - 1  # mask the high bit per RFC 7748
    return value % _P


def x25519(scalar: bytes, u: bytes) -> bytes:
    """The X25519 function: scalar multiplication on Curve25519.

    A low-order ``u`` (RFC 7748 section 6.1) yields 32 zero bytes, as
    section 5 defines; callers that need contributory behaviour check
    for that.
    """
    k = _decode_scalar(scalar)
    x1 = _decode_u(u)
    x2, z2 = 1, 0
    x3, z3 = x1, 1
    swap = 0
    for t in range(254, -1, -1):
        k_t = (k >> t) & 1
        if swap ^ k_t:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = k_t
        # Montgomery ladder step.  Only products are reduced: sums and
        # differences of reduced values go into the next product as
        # they are (Python's % returns the non-negative residue).
        a = x2 + z2
        b = x2 - z2
        aa = (a * a) % _P
        bb = (b * b) % _P
        e = aa - bb
        da = ((x3 - z3) * a) % _P
        cb = ((x3 + z3) * b) % _P
        x3 = da + cb
        x3 = (x3 * x3) % _P
        z3 = da - cb
        z3 = (x1 * z3 * z3) % _P
        x2 = (aa * bb) % _P
        z2 = (e * (aa + _A24 * e)) % _P
    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    if z2 == 0:
        return bytes(32)
    # pow(z, -1, p) uses extended-gcd inversion, ~20x faster than the
    # Fermat exponentiation for this one-off final inversion.
    result = (x2 * pow(z2, -1, _P)) % _P
    return result.to_bytes(32, "little")


# --- Fixed-base scalar multiplication ---------------------------------
#
# Public-key generation (``x25519_base``) runs once per real-crypto
# server connection (and per connection of a client without static key
# shares), and dominated the handshake hot path when done with the
# generic Montgomery ladder (255 ladder steps).  A scanner's one share
# per stage takes the ladder instead: a single key does not repay the
# table.
# Because the base point is fixed we can use a comb over the
# birationally-equivalent twisted Edwards curve (Ed25519): recode the
# scalar into 256/w signed w-bit digits in [-(2^(w-1) - 1), 2^(w-1)],
# precompute j * 2^(w*i) * B for every window i and j in 1..2^(w-1),
# and any clamped scalar costs at most 256/w cached point additions —
# a negative digit adds the negated table point, which is a swap and a
# sign (w = 8 below: 32 additions, 4,096 points, ~1 MB of table built
# lazily on first use).  The Montgomery u-coordinate of the result is
# recovered as u = (Z + Y) / (Z - Y); negating a point leaves u
# unchanged, so the comb output matches the ladder bit-for-bit.
#
# The a = -1 extended-coordinate formulas below are complete on
# Ed25519 (d is a non-square), so no special-casing is needed while
# building the table or walking the comb.

_ED_D2 = (2 * 37095705934669439343138083508754565189542113879843219016388785533085940283555) % _P
_ED_BX = 15112221349535400772501151409588531511454012693041857206046113283949847762202
_ED_BY = 46316835694926478169428394003475163141307993866256225615783033603165251855960

_COMB_WINDOW_BITS = 8
_COMB_WINDOWS = 256 // _COMB_WINDOW_BITS
_COMB_DIGITS = 1 << (_COMB_WINDOW_BITS - 1)
_COMB_TABLE = None


def _ed_add(p1, p2):
    """Extended-coordinate point addition (add-2008-hwcd-3, a = -1)."""
    x1, y1, z1, t1 = p1
    x2, y2, z2, t2 = p2
    a = ((y1 - x1) * (y2 - x2)) % _P
    b = ((y1 + x1) * (y2 + x2)) % _P
    c = (t1 * _ED_D2 * t2) % _P
    d = (2 * z1 * z2) % _P
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return (e * f) % _P, (g * h) % _P, (f * g) % _P, (e * h) % _P


def _ed_double(p):
    """Extended-coordinate point doubling (dbl-2008-hwcd, a = -1)."""
    x1, y1, z1, _ = p
    a = (x1 * x1) % _P
    b = (y1 * y1) % _P
    c = (2 * z1 * z1) % _P
    e = ((x1 + y1) * (x1 + y1) - a - b) % _P
    g = (b - a) % _P
    f = (g - c) % _P
    h = (-b - a) % _P
    return (e * f) % _P, (g * h) % _P, (f * g) % _P, (e * h) % _P


def _comb_table():
    """Lazily build the (256/w) x 2^(w-1) niels-form fixed-base table."""
    global _COMB_TABLE
    if _COMB_TABLE is not None:
        return _COMB_TABLE
    extended = []
    window_base = (_ED_BX, _ED_BY, 1, (_ED_BX * _ED_BY) % _P)
    for _ in range(_COMB_WINDOWS):
        point = window_base
        for _ in range(_COMB_DIGITS):
            extended.append(point)
            point = _ed_add(point, window_base)
        for _ in range(_COMB_WINDOW_BITS):
            window_base = _ed_double(window_base)
    # Normalise every point to affine niels form (y+x, y-x, 2dxy) so
    # comb additions become mixed additions with Z2 = 1.  All the
    # inversions share one extended-gcd inversion via Montgomery's
    # batch-inversion trick — table setup is on the cold-start path.
    prefix = []
    acc = 1
    for _x, _y, z, _t in extended:
        prefix.append(acc)
        acc = (acc * z) % _P
    inv_acc = pow(acc, -1, _P)
    inverses = [0] * len(extended)
    for index in range(len(extended) - 1, -1, -1):
        inverses[index] = (inv_acc * prefix[index]) % _P
        inv_acc = (inv_acc * extended[index][2]) % _P
    table = []
    for window in range(_COMB_WINDOWS):
        row = []
        for digit in range(_COMB_DIGITS):
            x, y, _z, _t = extended[window * _COMB_DIGITS + digit]
            inv_z = inverses[window * _COMB_DIGITS + digit]
            ax = (x * inv_z) % _P
            ay = (y * inv_z) % _P
            row.append(((ay + ax) % _P, (ay - ax) % _P, (_ED_D2 * ax * ay) % _P))
        table.append(tuple(row))
    _COMB_TABLE = tuple(table)
    return _COMB_TABLE


def _ed_add_niels(p1, niels):
    """Mixed addition: extended point + affine niels precomputed point."""
    x1, y1, z1, t1 = p1
    ypx, ymx, xy2d = niels
    a = ((y1 - x1) * ymx) % _P
    b = ((y1 + x1) * ypx) % _P
    c = (t1 * xy2d) % _P
    d = (2 * z1) % _P
    e = b - a
    f = d - c
    g = d + c
    h = b + a
    return (e * f) % _P, (g * h) % _P, (f * g) % _P, (e * h) % _P


def x25519_base(scalar: bytes) -> bytes:
    """Scalar multiplication with the curve base point (public key)."""
    k = _decode_scalar(scalar)
    point = (0, 1, 1, 0)  # neutral element
    # Signed digits, one per scalar byte (w = 8): a byte above 128
    # becomes byte - 256 and carries one into the next window.  The top
    # byte of a clamped scalar is at most 127, so no carry leaves the
    # last window.
    carry = 0
    for row, digit in zip(_comb_table(), k.to_bytes(_COMB_WINDOWS, "little")):
        digit += carry
        carry = digit > _COMB_DIGITS
        if carry:
            digit -= 1 << _COMB_WINDOW_BITS
        if digit > 0:
            point = _ed_add_niels(point, row[digit - 1])
        elif digit < 0:
            ypx, ymx, xy2d = row[-digit - 1]
            point = _ed_add_niels(point, (ymx, ypx, -xy2d))
    _x, y, z, _t = point
    # Montgomery u = (1 + y) / (1 - y) with projective y = Y/Z.  A
    # clamped scalar is a multiple of 8 in [2^254, 2^255), so the result
    # is never the neutral element and Z - Y is invertible.
    u = ((z + y) * pow(z - y, -1, _P)) % _P
    return u.to_bytes(32, "little")
