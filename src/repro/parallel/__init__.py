"""Parallel execution of campaign scan stages.

One scheduler, :class:`StreamEngine` (:mod:`repro.parallel.stream`),
runs every parallel stage: a record dataflow over prefix-ordered
chunks, planned from the stage table (:mod:`repro.experiments.stages`),
whose rows give each stage's consumers, barrier requirements and
dispatch depth.  It runs on a :class:`~repro.parallel.pool.WorkerPool`
(:mod:`repro.parallel.pool`): a campaign's own, or the fleet's shared
one (:mod:`repro.parallel.fleet`).  :class:`ScanEngine` is a one-stage
entry into the same scheduler for ``benchmarks/scanbench``.
"""

from repro.parallel.engine import ScanEngine
from repro.parallel.stream import StreamEngine

__all__ = ["ScanEngine", "StreamEngine"]
