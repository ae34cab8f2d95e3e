# Convenience targets for the NVMalloc reproduction.

# Every target runs the checkout's own sources, installed or not.
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: install test fuzz-long determinism cache-ablation slo-curve bench bench-selfcheck bench-pairs sample-layers census trace experiments experiments-par examples clean

install:
	pip install -e .

test:
	pytest tests/

# One marker suite: `make test-faults`, `test-lifecycle`, `test-obs`
# (the tracing-identity gate), `test-cache`, `test-slo`.  `make test`
# excludes them by marker expression; CI runs each in a dedicated job.
test-%:
	pytest -m $*

# Every property and stateful test at 20x its tier-1 examples
# (tests/conftest.py's fuzz_settings), printing the blob that reproduces a
# failure.  What it finds becomes an @example on that test, with the fix.
fuzz-long:
	pytest --fuzz-long $$(grep -l '^from hypothesis' tests/test_*.py)

bench:
	pytest benchmarks/ --benchmark-only

# The benchmark's own checks, then two short runs that must be correct
# (no "load changed", no failed op, repeats agree — the last output line
# says so) and stay under a peak-RSS ceiling.  svc_open: benefactors hold
# written bytes, not reserved chunks (about 100 MiB; a buffer per
# materialized chunk was about 600).  ckpt_restart: checkpoint links,
# replicas and write-backs share host bytes instead of copying them
# (about 235 MiB; a copy at every hand-off was about 290).

# $(call bench_rss_ceiling,WORKLOAD,MIB): a 2 s run, correct and under MIB.
define bench_rss_ceiling
python3 bench/run.py --workload $(1) --seconds 2 --trace 0 \
	| tee /dev/stderr | tail -n 1 | python3 -c "import json, sys; \
	r = json.load(sys.stdin); rss = r['metrics']['peak_rss_mib']['value']; \
	print('$(1) correct', r['correct'], ' peak_rss_mib %.1f (limit $(2))' % rss); \
	sys.exit(not r['correct'] or rss > $(2))"
endef

bench-selfcheck:
	python -m pytest bench -q
	$(call bench_rss_ceiling,svc_open,256)
	$(call bench_rss_ceiling,ckpt_restart,260)

# Interleaved parent/change pairs of one workload from two *exported*
# trees, every run printed as parent>change, a verdict per host metric:
#   make bench-pairs PARENT=/root/scratch/parent CHANGE=/root/scratch/change \
#       W=mpi_scan N=10 [S=12]
bench-pairs:
	python3 tools/bench_pairs.py $(PARENT) $(CHANGE) --workload $(W) \
		--pairs $(N) $(if $(S),--seconds $(S))

# Wall self-time per layer of one workload from an ITIMER_PROF stack
# sampler (6 000 ticks, 30-60 s; a bootstrap interval per layer, top
# functions and lines, time in garbage collection):
#   make sample-layers W=rand_read_miss
sample-layers:
	python3 tools/sample_layers.py --workload $(W)

# Reachability census: every experiment, CLI path, example, bench workload
# and paper-shape test under a call hook, two at a time (about 9 minutes).
# Three tables: what each root never enters, every src/repro function no
# root calls, and every knob (defaulted parameter or dataclass field) all
# roots leave at one value; fails when a root fails or a count passes
# tools/census.py's MAX_UNREACHED / MAX_SINGLE_VALUED.
census:
	python tools/census.py

# Render the full lru-vs-arc / tier-on-off ablation grid.
cache-ablation:
	python -m repro.experiments cache_tiering

# One experiment at TINY under two hash seeds: both runs must verify,
# digest identically and equal the committed pin (what CI runs after each
# marker suite).  `make determinism EXP=slo_traffic`
determinism:
	python tools/check_determinism.py $(EXP)

# Render the load-latency curve, its knee, and the SLO-under-failure
# verdicts at benchmark scale.
slo-curve:
	python -m repro.experiments slo_traffic

# Trace the faults experiment on the virtual clock and export a Chrome
# trace (open trace.json in chrome://tracing or https://ui.perfetto.dev).
trace:
	python -m repro.experiments faults --scale tiny \
		--trace --trace-out trace.json

experiments:
	python -m repro.experiments

# Fan the experiment matrix across every core; every run computes its report.
experiments-par:
	python -m repro.experiments --jobs $(shell nproc)

examples:
	for ex in examples/*.py; do echo "== $$ex"; python $$ex || exit 1; done

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf src/*.egg-info .pytest_cache .hypothesis
