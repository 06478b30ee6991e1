"""Tests for the cross-validation harness itself."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.eval.validation as validation
from repro.eval.validation import (
    SCHEMES,
    ValidationCase,
    main_validate,
    run_validation,
    validate_case,
)


class TestValidateCase:
    def test_direct_log(self):
        result = validate_case(
            ValidationCase(benchmark="log", scheme="direct", shape=(8, 16))
        )
        assert result.passed, result.detail

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_all_schemes_on_se(self, scheme):
        result = validate_case(
            ValidationCase(benchmark="se", scheme=scheme, shape=(8, 12))
        )
        assert result.passed, (scheme, result.detail)

    def test_native_report_is_checked_against_scalar(self, monkeypatch, fast_engine):
        # A fast engine whose report drifts from the scalar reference by
        # one cycle must fail the case, whatever else it gets right.
        simulate = validation.simulate_sweep

        def drifting(mapping, engine="auto", **kwargs):
            report = simulate(mapping, engine=engine, **kwargs)
            if engine == fast_engine:
                report = dataclasses.replace(
                    report, total_cycles=report.total_cycles + 1
                )
            return report

        monkeypatch.setattr(validation, "simulate_sweep", drifting)
        result = validate_case(
            ValidationCase(benchmark="se", scheme="direct", shape=(8, 12))
        )
        assert not result.passed
        assert result.detail == (
            f"{fast_engine} report differs from the scalar reference"
        )

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            validate_case(
                ValidationCase(benchmark="log", scheme="magic", shape=(8, 16))
            )


class TestRunValidation:
    def test_quick_subset_passes(self):
        report = run_validation(["se", "median"], quick=True)
        assert report.ok, report.summary()
        assert report.passed > 0

    def test_progress_callback(self):
        seen = []
        run_validation(["se"], schemes=("direct",), quick=True, progress=seen.append)
        assert seen and all("se/direct" in s for s in seen)

    def test_summary_format(self):
        report = run_validation(["se"], schemes=("direct",), quick=True)
        assert "passed" in report.summary()

    def test_cli(self, capsys):
        rc = main_validate(["--quick", "--benchmarks", "se"])
        assert rc == 0
        assert "0 failed" in capsys.readouterr().out

    def test_module_runs_as_a_script(self):
        # ``make validate`` and CI run the harness with ``python -m``; a
        # package re-export would import the module twice, which warns.
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.eval.validation", "--quick", "--benchmarks", "se"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "0 failed" in done.stdout
