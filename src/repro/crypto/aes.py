"""The AES block cipher (FIPS 197), implemented from scratch.

Only encryption is required by this repository: AES-GCM uses the
forward cipher for both directions (CTR mode), and QUIC header
protection (RFC 9001 §5.4.3) applies the forward cipher to a sample of
ciphertext, so the inverse cipher is not implemented.

Single blocks go through T-tables (S-box and MixColumns folded into
four 256-entry word tables); ``encrypt_blocks`` runs a whole buffer at
once as four row planes of big ints, one ``bytes.translate`` per S-box.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

__all__ = ["AES"]

# ---------------------------------------------------------------------------
# S-box generation.  We derive the S-box from first principles (inverse in
# GF(2^8) followed by the affine transform) rather than embedding a table of
# magic numbers, and verify a couple of well-known entries at import time.
# ---------------------------------------------------------------------------


def _gf_mul(a: int, b: int) -> int:
    """Multiply two elements of GF(2^8) modulo the AES polynomial."""
    p = 0
    for _ in range(8):
        if b & 1:
            p ^= a
        carry = a & 0x80
        a = (a << 1) & 0xFF
        if carry:
            a ^= 0x1B
        b >>= 1
    return p


def _gf_inv(a: int) -> int:
    """Multiplicative inverse in GF(2^8); inverse of 0 is defined as 0."""
    if a == 0:
        return 0
    # a^(2^8 - 2) == a^254 is the inverse (Fermat).
    result = 1
    base = a
    exponent = 254
    while exponent:
        if exponent & 1:
            result = _gf_mul(result, base)
        base = _gf_mul(base, base)
        exponent >>= 1
    return result


def _build_sbox() -> List[int]:
    sbox = [0] * 256
    for value in range(256):
        x = _gf_inv(value)
        # Affine transform: bitwise rotations of x XORed together plus 0x63.
        y = x
        for shift in (1, 2, 3, 4):
            y ^= ((x << shift) | (x >> (8 - shift))) & 0xFF
        y ^= 0x63
        sbox[value] = y
    return sbox


_SBOX = _build_sbox()
assert _SBOX[0x00] == 0x63 and _SBOX[0x53] == 0xED, "AES S-box self-check failed"

_RCON = [0x01]
while len(_RCON) < 14:
    _RCON.append(_gf_mul(_RCON[-1], 0x02))


def _build_tables() -> Tuple[List[int], List[int], List[int], List[int]]:
    """Build the four encryption T-tables (S-box + MixColumns combined)."""
    t0, t1, t2, t3 = [], [], [], []
    for value in range(256):
        s = _SBOX[value]
        s2 = _gf_mul(s, 2)
        s3 = _gf_mul(s, 3)
        word = (s2 << 24) | (s << 16) | (s << 8) | s3
        t0.append(word)
        t1.append(((word >> 8) | (word << 24)) & 0xFFFFFFFF)
        t2.append(((word >> 16) | (word << 16)) & 0xFFFFFFFF)
        t3.append(((word >> 24) | (word << 8)) & 0xFFFFFFFF)
    return t0, t1, t2, t3


_T0, _T1, _T2, _T3 = _build_tables()

# ``bytes.translate`` tables for the batched cipher: SubBytes, and
# SubBytes followed by multiplication by two (xtime).
_SBOX_BYTES = bytes(_SBOX)
_SBOX2_BYTES = bytes(_gf_mul(value, 2) for value in _SBOX)


class AES:
    """AES block cipher with a 128, 192 or 256 bit key.

    >>> cipher = AES(bytes(16))
    >>> cipher.encrypt_block(bytes(16)).hex()
    '66e94bd4ef8a2c3b884cfa59ca342b2e'
    """

    block_size = 16

    def __init__(self, key: bytes):
        if len(key) not in (16, 24, 32):
            raise ValueError(f"invalid AES key length: {len(key)}")
        self._key = key
        self._rounds = {16: 10, 24: 12, 32: 14}[len(key)]
        # Key schedules are memoised per key value: QUIC re-derives the
        # same Initial keys for every probe of a scan (the DCID-keyed
        # secrets repeat), and both GCM and header protection construct
        # fresh AES objects around recurring keys.
        self._round_keys = _expand_key_cached(key)

    @staticmethod
    def _expand_key(key: bytes) -> List[int]:
        nk = len(key) // 4
        rounds = {4: 10, 6: 12, 8: 14}[nk]
        words = [int.from_bytes(key[4 * i : 4 * i + 4], "big") for i in range(nk)]
        for i in range(nk, 4 * (rounds + 1)):
            temp = words[i - 1]
            if i % nk == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
                temp = (
                    (_SBOX[(temp >> 24) & 0xFF] << 24)
                    | (_SBOX[(temp >> 16) & 0xFF] << 16)
                    | (_SBOX[(temp >> 8) & 0xFF] << 8)
                    | _SBOX[temp & 0xFF]
                )
                temp ^= _RCON[i // nk - 1] << 24
            elif nk > 6 and i % nk == 4:
                temp = (
                    (_SBOX[(temp >> 24) & 0xFF] << 24)
                    | (_SBOX[(temp >> 16) & 0xFF] << 16)
                    | (_SBOX[(temp >> 8) & 0xFF] << 8)
                    | _SBOX[temp & 0xFF]
                )
            words.append(words[i - nk] ^ temp)
        return words

    def encrypt_block(self, block: bytes) -> bytes:
        if len(block) != 16:
            raise ValueError("AES operates on 16-byte blocks")
        rk = self._round_keys
        s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
        s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
        s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
        s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        for rnd in range(1, self._rounds):
            k = 4 * rnd
            u0 = (
                t0[(s0 >> 24) & 0xFF]
                ^ t1[(s1 >> 16) & 0xFF]
                ^ t2[(s2 >> 8) & 0xFF]
                ^ t3[s3 & 0xFF]
                ^ rk[k]
            )
            u1 = (
                t0[(s1 >> 24) & 0xFF]
                ^ t1[(s2 >> 16) & 0xFF]
                ^ t2[(s3 >> 8) & 0xFF]
                ^ t3[s0 & 0xFF]
                ^ rk[k + 1]
            )
            u2 = (
                t0[(s2 >> 24) & 0xFF]
                ^ t1[(s3 >> 16) & 0xFF]
                ^ t2[(s0 >> 8) & 0xFF]
                ^ t3[s1 & 0xFF]
                ^ rk[k + 2]
            )
            u3 = (
                t0[(s3 >> 24) & 0xFF]
                ^ t1[(s0 >> 16) & 0xFF]
                ^ t2[(s1 >> 8) & 0xFF]
                ^ t3[s2 & 0xFF]
                ^ rk[k + 3]
            )
            s0, s1, s2, s3 = u0, u1, u2, u3
        k = 4 * self._rounds
        sbox = _SBOX
        out0 = (
            (sbox[(s0 >> 24) & 0xFF] << 24)
            | (sbox[(s1 >> 16) & 0xFF] << 16)
            | (sbox[(s2 >> 8) & 0xFF] << 8)
            | sbox[s3 & 0xFF]
        ) ^ rk[k]
        out1 = (
            (sbox[(s1 >> 24) & 0xFF] << 24)
            | (sbox[(s2 >> 16) & 0xFF] << 16)
            | (sbox[(s3 >> 8) & 0xFF] << 8)
            | sbox[s0 & 0xFF]
        ) ^ rk[k + 1]
        out2 = (
            (sbox[(s2 >> 24) & 0xFF] << 24)
            | (sbox[(s3 >> 16) & 0xFF] << 16)
            | (sbox[(s0 >> 8) & 0xFF] << 8)
            | sbox[s1 & 0xFF]
        ) ^ rk[k + 2]
        out3 = (
            (sbox[(s3 >> 24) & 0xFF] << 24)
            | (sbox[(s0 >> 16) & 0xFF] << 16)
            | (sbox[(s1 >> 8) & 0xFF] << 8)
            | sbox[s2 & 0xFF]
        ) ^ rk[k + 3]
        return b"".join(x.to_bytes(4, "big") for x in (out0, out1, out2, out3))

    def encrypt_blocks(self, data: bytes) -> bytes:
        """ECB-encrypt a whole multiple of 16 bytes in one call.

        The state is held as four *row planes*: ``data[r::4]`` is row
        ``r`` of every column of every block, one big int per row with
        a 32-bit lane per block.  A round then costs the same handful
        of big-int and ``bytes.translate`` operations whatever the
        number of blocks: ShiftRows rotates each lane of row ``r`` by
        ``r`` bytes, SubBytes (and SubBytes times two) is a 256-byte
        table translate, and MixColumns needs no rotation at all
        because it only ever combines the same byte of different rows.
        """
        if len(data) % 16:
            raise ValueError("AES batch length must be a multiple of 16 bytes")
        size = len(data) // 4
        ones, hi1, lo1, hi2, lo2, hi3, lo3 = _lane_masks(size // 4)
        keys = _row_keys_cached(self._key)
        frm = int.from_bytes
        sbox, sbox2 = _SBOX_BYTES, _SBOX2_BYTES
        s0 = frm(data[0::4], "big") ^ keys[0] * ones
        s1 = frm(data[1::4], "big") ^ keys[1] * ones
        s2 = frm(data[2::4], "big") ^ keys[2] * ones
        s3 = frm(data[3::4], "big") ^ keys[3] * ones
        last = 4 * self._rounds
        for k in range(4, last + 4, 4):
            b0 = s0.to_bytes(size, "big")
            b1 = (((s1 << 8) & hi1) | ((s1 >> 24) & lo1)).to_bytes(size, "big")
            b2 = (((s2 << 16) & hi2) | ((s2 >> 16) & lo2)).to_bytes(size, "big")
            b3 = (((s3 << 24) & hi3) | ((s3 >> 8) & lo3)).to_bytes(size, "big")
            t0 = frm(b0.translate(sbox), "big")
            t1 = frm(b1.translate(sbox), "big")
            t2 = frm(b2.translate(sbox), "big")
            t3 = frm(b3.translate(sbox), "big")
            if k == last:  # final round: no MixColumns
                s0 = t0 ^ keys[k] * ones
                s1 = t1 ^ keys[k + 1] * ones
                s2 = t2 ^ keys[k + 2] * ones
                s3 = t3 ^ keys[k + 3] * ones
                break
            d0 = frm(b0.translate(sbox2), "big")
            d1 = frm(b1.translate(sbox2), "big")
            d2 = frm(b2.translate(sbox2), "big")
            d3 = frm(b3.translate(sbox2), "big")
            # Column c of the output is 2*S_r + 3*S_{r+1} + S_{r+2} + S_{r+3}
            # = (S_0^S_1^S_2^S_3) ^ S_r ^ D_r ^ D_{r+1} with D = 2*S.
            a = t0 ^ t1 ^ t2 ^ t3
            s0 = a ^ t0 ^ d0 ^ d1 ^ keys[k] * ones
            s1 = a ^ t1 ^ d1 ^ d2 ^ keys[k + 1] * ones
            s2 = a ^ t2 ^ d2 ^ d3 ^ keys[k + 2] * ones
            s3 = a ^ t3 ^ d3 ^ d0 ^ keys[k + 3] * ones
        out = bytearray(len(data))
        out[0::4] = s0.to_bytes(size, "big")
        out[1::4] = s1.to_bytes(size, "big")
        out[2::4] = s2.to_bytes(size, "big")
        out[3::4] = s3.to_bytes(size, "big")
        return bytes(out)

@lru_cache(maxsize=4096)
def _expand_key_cached(key: bytes) -> Tuple[int, ...]:
    return tuple(AES._expand_key(key))


@lru_cache(maxsize=4096)
def _row_keys_cached(key: bytes) -> Tuple[int, ...]:
    """Round keys as row patterns: entry ``4 * round + r`` is row ``r``.

    Each is the 32-bit lane (one byte per column) that
    ``encrypt_blocks`` multiplies out over its row plane.
    """
    schedule = b"".join(word.to_bytes(4, "big") for word in _expand_key_cached(key))
    return tuple(
        int.from_bytes(schedule[start + r : start + 16 : 4], "big")
        for start in range(0, len(schedule), 16)
        for r in range(4)
    )


@lru_cache(maxsize=256)
def _lane_masks(blocks: int) -> Tuple[int, ...]:
    """Per-batch-size constants: a one in every 32-bit lane, and the
    (kept-high, kept-low) byte masks of a lane rotation by 1, 2, 3 bytes."""
    ones = int.from_bytes(b"\x00\x00\x00\x01" * blocks, "big")
    return (ones,) + tuple(
        mask * ones
        for shift in (8, 16, 24)
        for mask in ((0xFFFFFFFF << shift) & 0xFFFFFFFF, 0xFFFFFFFF >> (32 - shift))
    )
