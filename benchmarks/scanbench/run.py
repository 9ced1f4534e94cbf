"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/scanbench/run.py``.

Puts the benchmark package and the program under test (``src/``) on the
import path, then hands over to the command line (or, for the child
interpreters the harness starts, to the worker).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE.parent))
    if len(sys.argv) > 1 and sys.argv[1] == "--worker":
        from scanbench import worker

        return worker.main(sys.argv[2:])
    from scanbench import cli

    return cli.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
