"""scanbench's own tests (``--selftest``); not part of the tier-1 suite."""

from __future__ import annotations

import unittest


def run_selftest() -> int:
    suite = unittest.defaultTestLoader.loadTestsFromNames(
        [f"{__name__}.{module}" for module in ("test_stats", "test_tracer", "test_spec", "test_compare")]
    )
    result = unittest.TextTestRunner(verbosity=2).run(suite)
    return 0 if result.wasSuccessful() else 1
