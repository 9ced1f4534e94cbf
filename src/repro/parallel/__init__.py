"""Parallel execution of campaign scan stages.

Two engines share the worker plumbing: the barrier-synchronised
:class:`ScanEngine` (one stage at a time, interleaved permutation
shards) and the streaming :class:`StreamEngine` (record dataflow over
prefix-ordered chunks; see :mod:`repro.parallel.stream`).  Both plan
from the stage table (:mod:`repro.experiments.stages`): its rows give
each stage's shipped dependencies, inline-cost weight, consumers,
barrier requirements and dispatch depth.
"""

from repro.parallel.engine import ScanEngine
from repro.parallel.stream import StreamEngine, run_streaming

__all__ = ["ScanEngine", "StreamEngine", "run_streaming"]
