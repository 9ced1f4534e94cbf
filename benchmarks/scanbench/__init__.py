"""scanbench: the benchmark ``BENCHMARK.json`` declares.

Seven named workloads over the scan pipeline, five host-normalised
end-to-end metrics, a per-layer ledger of microbenchmarks and a traced
run that attributes each workload's wall time to the packages under
``src/repro/``.  See ``README.md`` beside this file.
"""
