"""Scale sweep: `repro scan --seed 3` at 1:20,000, 1:1,000, 1:200 and 1:50.

Each scan runs in a child process of its own; its wall time and peak RSS
(the child's ``ru_maxrss``, as ``RUSAGE_CHILDREN`` reports it for one
reaped child) are printed beside the world's size, taken from
`repro world`: bytes of peak RSS per deployment and per listed name.

    PYTHONPATH=src python benchmarks/scale_sweep.py [scale ...]
"""

import os
import re
import subprocess
import sys
import time

SCALES = (20_000, 1_000, 200, 50)


def child(*args: str):
    """Run ``python -m repro ARGS``; (stdout, wall seconds, peak RSS bytes)."""
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", *args], stdout=subprocess.PIPE, text=True
    )
    output = process.stdout.read()
    _pid, status, usage = os.wait4(process.pid, 0)
    if status:
        raise SystemExit(f"repro {' '.join(args)} exited with status {status}")
    return output, time.perf_counter() - start, usage.ru_maxrss * 1024


def main(scales) -> None:
    print(f"{'scale':>9} {'wall s':>8} {'peak MB':>8} {'deployments':>11} "
          f"{'B/deployment':>12} {'listed':>7} {'B/listed':>9}")
    for scale in scales:
        common = ("--scale", str(scale), "--seed", "3")
        world, _wall, _rss = child("world", *common)
        deployments = int(re.search(r"deployments: (\d+)", world).group(1))
        lists_line = world.split("lists:")[1].splitlines()[0]
        listed = sum(map(int, re.findall(r"\((\d+)\)", lists_line)))
        _output, wall, rss = child("scan", *common)
        print(f"{'1:' + str(scale):>9} {wall:8.1f} {rss / 1e6:8.1f} {deployments:11d} "
              f"{rss / deployments:12,.0f} {listed:7d} {rss / listed:9,.0f}")


if __name__ == "__main__":
    main([int(arg) for arg in sys.argv[1:]] or SCALES)
