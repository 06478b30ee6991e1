"""Seeded differential fuzzing and property oracles (``repro-verify``).

Theorem 1's constant-time construction of ``α`` is only trustworthy if it
is conflict-free for *every* pattern / bounding-box / ``N_max`` combination
— not just the paper's Table 1 kernels.  This package cross-checks the
repo's independent partitioner implementations (paper solver, LTB scalar,
LTB native, the naive baselines) and two simulation engines against each
other and against closed-form properties, on deterministic seed-driven
random cases:

* :mod:`repro.verify.gen` — stratified case generator (dims 1–4,
  degenerate shapes, scheme choices), fully deterministic per seed.
* :mod:`repro.verify.oracles` — the property catalog checked per case.
* :mod:`repro.verify.shrink` — greedy counterexample minimizer.
* :mod:`repro.verify.runner` — seeded suites, JSONL corpora, replay,
  counterexample artifacts, ``verify.*`` metrics.
* :mod:`repro.verify.cli` — the ``repro-verify`` entry point.

See ``docs/VERIFICATION.md`` for the oracle catalog and triage workflow.
"""

from .gen import CaseSpec, generate_case, iter_cases
from .oracles import CaseOutcome, OracleFailure, ORACLE_NAMES, run_oracles
from .runner import SuiteReport, replay_paths, run_suite
from .shrink import shrink_case

__all__ = [
    "CaseSpec",
    "CaseOutcome",
    "OracleFailure",
    "ORACLE_NAMES",
    "SuiteReport",
    "generate_case",
    "iter_cases",
    "replay_paths",
    "run_oracles",
    "run_suite",
    "shrink_case",
]
