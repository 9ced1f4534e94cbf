"""Probabilistic prime generation (Miller-Rabin) for the RSA substrate."""

from __future__ import annotations

import math
import random
from typing import Optional

__all__ = ["is_probable_prime", "generate_prime"]

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
]
_SMALL_PRIME_PRODUCT = math.prod(_SMALL_PRIMES)


def is_probable_prime(n: int, rounds: int = 24, rng: Optional[random.Random] = None) -> bool:
    """Miller-Rabin primality test with ``rounds`` random witnesses."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    rng = rng or random.Random()
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random probable prime with exactly ``bits`` bits.

    The top two bits are set, so the product of two such primes of
    ``a`` and ``b`` bits always has exactly ``a + b`` bits.  Candidates
    sharing a factor with a small prime are rejected with one ``gcd``
    before the Miller-Rabin rounds, which then run in full.
    """
    if bits < 8:
        raise ValueError("prime size too small")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (3 << (bits - 2)) | 1  # correct size, odd
        if math.gcd(candidate, _SMALL_PRIME_PRODUCT) != 1:
            continue
        if is_probable_prime(candidate, rng=rng):
            return candidate
