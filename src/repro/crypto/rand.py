"""Deterministic randomness for reproducible measurement campaigns.

Every stochastic decision in the simulator and the scanners draws from
a :class:`DeterministicRandom` derived from a campaign seed, so a whole
weekly scan campaign replays bit-identically.
"""

from __future__ import annotations

import _random
import hashlib
import random
from typing import Union

__all__ = ["DeterministicRandom", "derive_seed", "seed_value"]


def derive_seed(*parts: Union[str, int, bytes]) -> int:
    """Derive a child seed from labelled parts (domain separation).

    Each part is hashed as a 4-byte length and its bytes (an int as
    its decimal string), all parts in one SHA-256 pass.
    """
    pieces = []
    for part in parts:
        if part.__class__ is int:
            part = b"%d" % part
        elif isinstance(part, str):
            part = part.encode()
        elif isinstance(part, int):  # bool and other int subclasses: str()
            part = str(part).encode()
        pieces += (len(part).to_bytes(4, "big"), part)
    return int.from_bytes(hashlib.sha256(b"".join(pieces)).digest()[:8], "big")


def seed_value(seed: Union[str, int, bytes, tuple]) -> int:
    """The integer seed a :class:`DeterministicRandom` made from ``seed`` uses."""
    if isinstance(seed, tuple):
        return derive_seed(*seed)
    return seed if isinstance(seed, int) else derive_seed(seed)


_SEED_TWISTER = _random.Random.seed


class DeterministicRandom(random.Random):
    """A :class:`random.Random` with labelled child-generator support."""

    def __init__(self, seed: Union[str, int, bytes, tuple] = 0):
        # ``random.Random.__init__`` would go through the Python-level
        # ``Random.seed``, which hands an int straight to the C twister:
        # this seeds it once, there, to the same state.
        if not isinstance(seed, int):
            seed = seed_value(seed)
        _SEED_TWISTER(self, seed)
        self.gauss_next = None
        self._seed_value = seed

    def child(self, *labels: Union[str, int, bytes]) -> "DeterministicRandom":
        """Create an independent child generator for a labelled purpose."""
        return DeterministicRandom(derive_seed(self._seed_value, *labels))

    def token(self, length: int) -> bytes:
        """Random bytes (e.g. connection IDs, key material)."""
        return self.getrandbits(length * 8).to_bytes(length, "big")
