# Convenience targets for the repro repository.

.PHONY: install build-ext clean-ext test bench bench-perf bench-check validate table1 casestudy examples serve verify fuzz all

install:
	python setup.py develop

# Optional compiled fast tier (engine="native"; docs/PERFORMANCE.md).
# Needs a C compiler; everything keeps working without it — engine="auto"
# falls back to the NumPy engines when the extension is absent.
build-ext:
	REPRO_BUILD_NATIVE=1 python setup.py build_ext --inplace

clean-ext:
	rm -f src/repro/native/_native*.so src/repro/native/_native*.pyd
	rm -rf build

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

# Implementation-speed trajectory (scalar vs vectorized, cold vs warm
# cache); writes BENCH_perf.json at the repo root.  Use PRESET=full for
# the acceptance workload (512x512 stencil).
bench-perf:
	PYTHONPATH=src python benchmarks/bench_perf_suite.py --preset $(or $(PRESET),small)

# Perf-regression gate: fresh suite run vs benchmarks/baselines/.  SLACK=
# overrides the tolerance; `make bench-check SLACK=2.5 RUNS=3` is the
# careful local pass, CI runs --quick with a wide slack.  Re-baseline
# after an intentional perf change with:
#   PYTHONPATH=src python -m repro.bench.check --update-baseline
bench-check:
	PYTHONPATH=src python -m repro.bench.check --slack $(or $(SLACK),2.5) --runs $(or $(RUNS),1)

validate:
	python -m repro.eval.validation --quick

table1:
	python -c "from repro.eval.cli import main_table1; main_table1([])"

casestudy:
	python -c "from repro.eval.cli import main_casestudy; main_casestudy([])"

examples:
	for f in examples/*.py; do echo "== $$f"; python $$f > /dev/null || exit 1; done

# Seeded differential fuzzing (docs/VERIFICATION.md).  CASES= and SEED=
# override the sweep; `make fuzz` additionally runs the pytest fuzz tier.
verify:
	PYTHONPATH=src python -m repro.verify.cli --cases $(or $(CASES),500) --seed $(or $(SEED),0)

fuzz: verify
	pytest tests/ -m fuzz

# Long-lived partitioning service (docs/SERVING.md).  STORE= sets the
# persistent solution store directory; PORT=0 binds an ephemeral port.
serve:
	PYTHONPATH=src python -m repro.serve.cli --port $(or $(PORT),8642) $(if $(STORE),--store-dir $(STORE))

all: install test bench validate examples
