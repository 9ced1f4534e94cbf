"""The machine under the benchmark: speed sampling, CPU, memory, steal.

This sandbox slows down and speeds up by tens of percent within
seconds (other tenants on the same cores), and user+sys CPU time drifts
with it, so neither clock is steady.  Calibrating before and after an
operation does not help once the operation outlasts the drift: measured
on 2.5 s operations, wall time spread 11 % between quartiles and
endpoint-calibrated time 20 %.  What works is sampling the host's speed
*while* the operation runs: a background thread executes a fixed ~1 ms
slice of interpreter work every 20 ms and times it on its own thread
CPU clock, which waiting for the GIL does not advance.  A sample taken
while the host ran at ``h`` times the reference speed is reported as
``seconds * h`` (2.5 % between quartiles on the same operations).

All ``*_s`` and ``*_per_s`` end-to-end metrics are host-normalised this
way; ``host.calib_ops_s`` in the traced run is the raw slice rate, so a
reader can undo it.  The sampler costs the measured thread about 5 %.
"""

from __future__ import annotations

import bisect
import hashlib
import resource
import threading
import time
from typing import List, Tuple

# Slice rate (ops/s) at which normalised seconds equal wall seconds: the
# quiet-host median on the 2.1 GHz Xeon VM this benchmark was written
# on.  A constant, never re-tuned, or history stops comparing.
CALIB_REFERENCE_OPS_S = 3_000_000.0

SAMPLE_INTERVAL_S = 0.02
# Readings this far outside an operation's window still describe it;
# without the pad an 11 ms handshake would often have no reading at all.
WINDOW_PAD_S = 0.1

_SLICE_OPS = 2_000


class _Cell:
    __slots__ = ("value", "count")

    def __init__(self) -> None:
        self.value = 0
        self.count = 0

    def bump(self, amount: int) -> int:
        self.value = (self.value * 31 + amount) & 0xFFFFFFFF
        self.count += 1
        return self.value


def calibration_slice() -> None:
    """A fixed slice of the work the program is made of: bytecode
    dispatch, method calls, attribute stores, dict and bytes traffic,
    C-level hashing and big-int arithmetic."""
    cell = _Cell()
    table = {}
    blob = bytes(range(256))
    for i in range(_SLICE_OPS - 200):
        table[cell.bump(i) & 255] = blob[i & 127 : (i & 127) + 16]
    for i in range(100):
        hashlib.sha256(blob[: 64 + (i & 63)]).digest()
    accumulator = 3
    for i in range(100):
        accumulator = pow(accumulator, 3, 0xFFFFFFFFFFFFFFC5) + i


class SpeedSampler:
    """Background thread recording (time, slice rate) readings."""

    def __init__(self, interval: float = SAMPLE_INTERVAL_S) -> None:
        self._interval = interval
        self._stop = threading.Event()
        self._times: List[float] = []
        self._rates: List[float] = []
        self._thread = threading.Thread(
            target=self._run, name="scanbench-speed-sampler", daemon=True
        )

    def start(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def _run(self) -> None:
        while not self._stop.is_set():
            begin = time.thread_time()
            calibration_slice()
            spent = time.thread_time() - begin
            if spent > 0:
                self._times.append(time.perf_counter())
                self._rates.append(_SLICE_OPS / spent)
            self._stop.wait(self._interval)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def rate(self, start: float, end: float) -> float:
        """Mean slice rate over ``[start, end]`` (padded), in ops/s."""
        lo = bisect.bisect_left(self._times, start - WINDOW_PAD_S)
        hi = bisect.bisect_right(self._times, end + WINDOW_PAD_S)
        window = self._rates[lo:hi]
        if not window:
            # Nothing that close (the GIL was held throughout): fall
            # back to the nearest reading on either side.
            window = self._rates[max(0, lo - 1) : hi + 1]
        if not window:
            raise RuntimeError("speed sampler has no readings yet")
        return sum(window) / len(window)

    def speed(self, start: float, end: float) -> float:
        """Host speed over the window, relative to the reference host."""
        return self.rate(start, end) / CALIB_REFERENCE_OPS_S

    @property
    def readings(self) -> int:
        return len(self._rates)


def cpu_seconds() -> float:
    """User+sys CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Own peak RSS plus the largest reaped child's peak, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def rss_mb() -> float:
    """Current resident set size in MB (0.0 when /proc is absent)."""
    try:
        with open("/proc/self/statm") as stream:
            pages = int(stream.read().split()[1])
    except (OSError, ValueError, IndexError):
        return 0.0
    return pages * resource.getpagesize() / (1024.0 * 1024.0)


def steal_ticks() -> Tuple[int, int]:
    """(steal, total) jiffies from /proc/stat; (0, 0) when unreadable."""
    try:
        with open("/proc/stat") as stream:
            fields = stream.readline().split()
    except OSError:
        return 0, 0
    if not fields or fields[0] != "cpu":
        return 0, 0
    values = [int(value) for value in fields[1:]]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values[:8])
