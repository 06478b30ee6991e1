"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import sys

import pytest

from repro import native
from repro.core import Pattern, partition, solve_cache
from repro.patterns import (
    canny_pattern,
    gaussian_pattern,
    log_pattern,
    median_pattern,
    prewitt_pattern,
    se_pattern,
    sobel3d_pattern,
)


@pytest.fixture(autouse=True)
def _clean_solve_cache():
    """Isolate every test from memoized solutions (and their counters).

    Span- and op-count assertions would otherwise depend on whether an
    earlier test already solved the same pattern.
    """
    solve_cache.clear()
    yield
    solve_cache.clear()


#: Shown by ``pytest -rs`` whenever the native engine rows are skipped, so
#: a run on a host that cannot build the extension is visibly a scalar-only
#: run, never a silent loss of coverage.
NATIVE_SKIP_REASON = (
    f"native extension unavailable: {native.build_info()['import_error']}"
)


@pytest.fixture
def native_unavailable(monkeypatch, tmp_path):
    """The native tier as on a host whose C compiler fails.

    A fresh loader over an empty cache whose compile command is an
    interpreter that prints a compiler-style error and exits 1.
    """
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_loader", native._Loader())
    monkeypatch.setattr(
        native,
        "_compile_command",
        lambda: [
            sys.executable,
            "-c",
            "import sys; sys.stderr.write('fatal error: Python.h: No such "
            "file or directory\\n'); sys.exit(1)",
        ],
    )
    return "fatal error: Python.h: No such file or directory"


def engine_param(name: str):
    """An engine name as a pytest param; ``native`` skips when unavailable.

    The single source of truth for the engine test matrix: every
    engine-equivalence test parametrizes over these instead of hard-coding
    engine pairs, so the compiled tier joins (or cleanly leaves) the matrix
    in one place.
    """
    if name == "native":
        return pytest.param(
            name,
            marks=pytest.mark.skipif(
                not native.available(), reason=NATIVE_SKIP_REASON
            ),
        )
    return pytest.param(name)


@pytest.fixture(params=[engine_param("native")])
def fast_engine(request) -> str:
    """The compiled sweep/search engine, to compare against ``scalar``."""
    return request.param


@pytest.fixture(params=[engine_param("scalar"), engine_param("native")])
def sim_engine(request) -> str:
    """Every concrete engine name (for shared validation behaviour)."""
    return request.param


@pytest.fixture(scope="session")
def fast_engines() -> list:
    """Names of the compiled engines (for in-test loops where a
    parametrized fixture would clash with Hypothesis's function-scoped
    fixture health check); skips, with the reason, where none builds."""
    if not native.available():
        pytest.skip(NATIVE_SKIP_REASON)
    return ["native"]


@pytest.fixture
def log_p() -> Pattern:
    return log_pattern()


@pytest.fixture
def se_p() -> Pattern:
    return se_pattern()


@pytest.fixture
def all_2d_benchmarks():
    """The 2-D Table 1 patterns (name, pattern)."""
    return [
        ("log", log_pattern()),
        ("canny", canny_pattern()),
        ("prewitt", prewitt_pattern()),
        ("se", se_pattern()),
        ("median", median_pattern()),
        ("gaussian", gaussian_pattern()),
    ]


@pytest.fixture
def all_benchmarks(all_2d_benchmarks):
    """All seven Table 1 patterns."""
    return all_2d_benchmarks + [("sobel3d", sobel3d_pattern())]


@pytest.fixture
def log_solution():
    return partition(log_pattern())


@pytest.fixture
def small_shape():
    """An array just big enough for the 5x5 patterns, cheap to enumerate."""
    return (12, 14)
