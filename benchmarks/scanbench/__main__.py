"""``python -m benchmarks.scanbench`` (with ``PYTHONPATH=src``)."""

import sys

from .cli import main

sys.exit(main())
