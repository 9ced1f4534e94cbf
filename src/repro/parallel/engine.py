"""A one-stage entry into the streaming scheduler, for ``benchmarks/scanbench``.

No product path uses :class:`ScanEngine`: campaigns stream their stages
through :class:`~repro.parallel.stream.StreamEngine`.  The class stays
only because ``benchmarks/scanbench`` times a pool's start and task
round trip through ``ScanEngine.run_stage``; it goes with the benchmark
change that moves scanbench onto the stream engine.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

__all__ = ["ScanEngine"]


class ScanEngine:
    """Runs single stages of one configuration on a persistent pool."""

    def __init__(self, config, workers: Optional[int] = None, world=None):
        from repro.experiments.campaign import Campaign

        self.workers = max(1, workers if workers is not None else os.cpu_count() or 1)
        self._campaign = Campaign(config, world=world, workers=self.workers)

    def run_stage(
        self, stage: str, deps: Optional[Dict[str, object]] = None
    ) -> Tuple[List[object], List[str], int]:
        """Compute ``stage`` afresh over ``deps``; ``(records, errors, tasks)``.

        Inputs missing from ``deps`` are computed in the same run.  The
        errors are the failed chunks' messages; ``tasks`` counts the
        run's chunk tasks.
        """
        campaign = self._campaign
        campaign.__dict__.pop(stage, None)
        campaign.__dict__.update(deps or {})
        engine = campaign._stream([stage])
        return campaign.__dict__[stage], engine._nodes[stage].errors, engine._tasks_total

    def close(self) -> None:
        self._campaign.close()
