PYTHON ?= python
export PYTHONPATH := src

.PHONY: test docs-check scanbench-tests shapes scale-sweep bench-smoke bench-profile reach report artefacts interop chaos chaos-smoke conform conform-smoke fuzz-smoke warehouse-smoke longitudinal-smoke matrix-smoke fleet-smoke clean

# chaos-smoke keeps the fault-injection/degradation path exercised
# (`repro report` under a fault profile, with retries),
# fuzz-smoke the wire-format conformance suite, conform-smoke the
# serial-vs-streaming differential oracle, bench-smoke the
# pipeline-overlap gate, warehouse-smoke the
# load → QA → query path, longitudinal-smoke the crash/resume
# ledger path, matrix-smoke the path-condition scenario grid, and
# fleet-smoke the fleet scheduler's byte-identity contract on
# every `make test` run (the full suite includes
# tests/test_resilience.py, tests/test_stream.py,
# tests/test_conformance.py, tests/test_warehouse.py,
# tests/test_longitudinal.py, tests/test_paths.py and
# tests/test_fleet.py; deep fuzzing runs via `pytest -m slow_fuzz`).
test: docs-check scanbench-tests shapes chaos-smoke fuzz-smoke conform-smoke bench-smoke warehouse-smoke longitudinal-smoke matrix-smoke fleet-smoke
	$(PYTHON) -m pytest -x -q --durations=20

# Paper-shape gate: regenerate benchmarks/output/ and require every
# artefact to equal its committed copy; A4's ms/handshake column is
# wall-clock timing, the one thing allowed to move.  An intentional
# change is re-recorded by committing the regenerated files.
shapes:
	$(PYTHON) -m pytest -x -q benchmarks/test_tables.py benchmarks/test_figures.py \
		benchmarks/test_ablations.py --benchmark-disable
	git diff --exit-code HEAD -- benchmarks/output ':!benchmarks/output/A4.txt'
	mkdir -p .cache
	git show HEAD:benchmarks/output/A4.txt | sed -E 's/[0-9.]+ *$$//' > .cache/A4.committed
	sed -E 's/[0-9.]+ *$$//' benchmarks/output/A4.txt | diff .cache/A4.committed -

# Scale sweep, not part of `make test` (minutes): `repro scan --seed 3`
# at 1:20,000, 1:1,000, 1:200 and 1:50, one child process each, with
# wall time, peak RSS and bytes per deployment and per listed name.
scale-sweep:
	$(PYTHON) benchmarks/scale_sweep.py

# Reach map, not part of `make test` (a minute or two): the outermost
# functions in src/ that thirty CLI runs never enter, pool workers
# included, per module.
reach:
	$(PYTHON) benchmarks/reach.py

# Validates intra-repo markdown links + module docstring presence.
docs-check:
	$(PYTHON) -m pytest -x -q tests/test_docs.py

# scanbench's own unit tests (~2 s).  test_tracer resolves every
# boundary the benchmark pins by name (build_marts, table1-table6,
# append_week_timelines, ...), so renaming one fails here, not in a
# benchmark run.
scanbench-tests:
	$(PYTHON) -m pytest -x -q benchmarks/scanbench/tests

# Full scan report under the default fault profile, with retries.
chaos:
	$(PYTHON) -m repro report --fault-profile flaky-edge --scan-retries 3 --scale 50000 \
		--seed 7 --metrics-out .cache/chaos/metrics.json

# Fast end-to-end report under faults on a tiny world (nonzero exit on
# any total stage failure).
chaos-smoke:
	$(PYTHON) -m repro report --fault-profile flaky-edge --scan-retries 2 --scale 200000 \
		--seed 23 --metrics-out .cache/chaos-smoke/metrics.json

# Full conformance run: golden vectors + fuzzer + differential oracle.
conform:
	$(PYTHON) -m repro conform --seed 9000 --iterations 20000

# Bounded fixed-seed conformance smoke (vectors + fuzz, no campaign
# replay) — cheap enough to gate every `make test`.
fuzz-smoke:
	$(PYTHON) -m repro conform --seed 9000 --iterations 2000 --skip-differential

# Differential oracle with the streaming engine on the parallel side
# (the workers>1 default): serial and streamed campaigns must stay
# byte-identical, records and metrics.json both.
conform-smoke:
	$(PYTHON) -m repro conform --seed 9000 --iterations 200 --diff-workers 2

# Fast cold serial-vs-parallel overhead gate on a small world; fails
# when parallel cold exceeds 1.25x serial, the streaming pipeline
# stops overlapping stages (pipeline_speedup over a stage-at-a-time
# run collapses, no tasks recorded, overlap_ratio at/below 1), or any
# StageHealth is not "success". Wired into `make test`.
bench-smoke:
	$(PYTHON) -m repro bench --smoke --workers 2

# End-to-end warehouse smoke: load a tiny campaign into a throwaway
# sqlite file (QA runs strictly inside the load, so any integrity
# failure is a nonzero exit) and read Table 1 back from the mart.
warehouse-smoke:
	rm -f .cache/warehouse-smoke.sqlite
	$(PYTHON) -m repro load --scale 200000 --seed 23 --db .cache/warehouse-smoke.sqlite
	$(PYTHON) -m repro query table1 --db .cache/warehouse-smoke.sqlite

# Crash/resume smoke: run a 3-week series on two workers with a
# SIGKILL injected mid-week-17, a delta week streaming on its pool; the
# pipe into `tee` ends once the last of its workers has exited, and
# its status, not the intentional death's, is the step's.  The killed
# run's stderr must hold no traceback: a worker dies with its parent,
# quietly, not on the chunk it cannot hand back.  Then resume without
# `--workers`, which stays out of the run id — completed weeks are
# skipped, the interrupted week replays from its stage cache — and
# read the week ledger back.  Nonzero exit if the resumed series
# leaves any week incomplete.  Then the same series runs clean, once
# serially and once under `--watchdog 120 --workers 2`, each into a
# warehouse of its own, and the resumed and watched ledgers' delta
# columns (week, hits, misses, base week) must equal the clean run's:
# neither a crash nor a watchdog changes what a series writes.
LT_SMOKE = $(PYTHON) -m repro longitudinal --weeks 16-18 --scale 200000 --seed 23
longitudinal-smoke:
	rm -rf .cache/longitudinal-smoke*
	mkdir -p .cache
	{ REPRO_SERVICE_FAULT=kill@mid-week:17 $(LT_SMOKE) --workers 2 \
		--db .cache/longitudinal-smoke.sqlite --cache-dir .cache/longitudinal-smoke \
		2>&1 >&3 | tee .cache/longitudinal-smoke-killed.err >&2; } 3>&1
	! grep -n Traceback .cache/longitudinal-smoke-killed.err
	$(LT_SMOKE) --db .cache/longitudinal-smoke.sqlite --cache-dir .cache/longitudinal-smoke --resume
	$(PYTHON) -m repro query weeks --db .cache/longitudinal-smoke.sqlite
	$(LT_SMOKE) --db .cache/longitudinal-smoke-plain.sqlite \
		--cache-dir .cache/longitudinal-smoke-plain
	$(LT_SMOKE) --watchdog 120 --workers 2 --db .cache/longitudinal-smoke-watchdog.sqlite \
		--cache-dir .cache/longitudinal-smoke-watchdog
	for run in "" -plain -watchdog; do \
		$(PYTHON) -m repro query weeks --db .cache/longitudinal-smoke$$run.sqlite \
			| awk '{ print $$1, $$5, $$6, $$7 }' > .cache/longitudinal-smoke$$run.delta; \
	done
	diff .cache/longitudinal-smoke-plain.delta .cache/longitudinal-smoke.delta
	diff .cache/longitudinal-smoke-plain.delta .cache/longitudinal-smoke-watchdog.delta

# Scenario-matrix smoke: fan a 2x2 datarate x latency grid over a tiny
# world, load every cell into a throwaway sqlite file (per-cell and
# matrix QA run strictly inside, so any integrity failure is a nonzero
# exit) and read the heatmap report back.
matrix-smoke:
	rm -f .cache/matrix-smoke.sqlite
	$(PYTHON) -m repro matrix --grid 2x2 --scale 200000 --seed 23 \
		--db .cache/matrix-smoke.sqlite
	$(PYTHON) -m repro query matrix --db .cache/matrix-smoke.sqlite

# Fleet-scheduler smoke: run matrix-smoke's 2x2 grid again sequentially
# on --workers 2, and via --fleet-jobs 2 (shared world snapshot,
# persistent pool, concurrent cells, ordered commits) into separate
# warehouses, then require the raw database files to be byte-identical
# to matrix-smoke's sequential one: how a matrix's work is split leaves
# no byte.
fleet-smoke: matrix-smoke
	rm -f .cache/fleet-smoke-workers2.sqlite .cache/fleet-smoke-fleet.sqlite
	$(PYTHON) -m repro matrix --grid 2x2 --scale 200000 --seed 23 \
		--db .cache/fleet-smoke-workers2.sqlite --workers 2
	$(PYTHON) -m repro matrix --grid 2x2 --scale 200000 --seed 23 \
		--db .cache/fleet-smoke-fleet.sqlite --fleet-jobs 2
	cmp .cache/matrix-smoke.sqlite .cache/fleet-smoke-workers2.sqlite
	cmp .cache/matrix-smoke.sqlite .cache/fleet-smoke-fleet.sqlite

# Per-stage cProfile dump (top cumulative functions) for hot-path work.
bench-profile:
	$(PYTHON) -m repro bench --profile

report:
	$(PYTHON) -m repro report

artefacts:
	$(PYTHON) -m repro artefacts

interop:
	$(PYTHON) -m repro interop

clean:
	rm -rf .cache metrics.json
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
