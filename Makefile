# Convenience targets for the repro repository.

.PHONY: install build-ext clean-ext test bench validate table1 casestudy examples serve verify fuzz all

install:
	python setup.py develop

# The C extension (engine="native"; docs/PERFORMANCE.md) is compiled on
# first use into a per-user cache.  build-ext pre-warms that cache (and
# fails if this host cannot build it); clean-ext deletes it.
build-ext:
	PYTHONPATH=src python -c "from repro import native; native.require()"

clean-ext:
	PYTHONPATH=src python -c "import shutil; from repro import native; shutil.rmtree(native.cache_dir())"

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

validate:
	python -W error::RuntimeWarning -m repro.eval.validation --quick

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
