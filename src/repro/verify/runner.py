"""Suite execution: seeded runs, JSONL corpora, replay, counterexamples.

One **corpus record** per case, one JSON line each::

    {"format": "repro/verify-case", "case": {...}, "status": "ok"|"fail",
     "checked": [...], "failures": [{"oracle": ..., "message": ...}]}

A **counterexample artifact** is a standalone JSON file::

    {"format": "repro/verify-counterexample", "original": {...},
     "shrunk": {...}, "failure": {...}, "evaluations": N}

Replay accepts corpus files, counterexample artifacts, and bare
:class:`~repro.verify.gen.CaseSpec` JSON (one per line), so "re-run what
CI uploaded" is one command regardless of which file you grabbed.

Metrics: every run mirrors ``verify.cases`` / ``verify.failures`` (and
per-oracle ``verify.oracle.<name>.failures``) into the process-global
registry, visible through ``--emit-metrics`` like every other harness.

Parallelism goes through the DAG scheduler (:func:`repro.sched.map_tasks`).
Case specs are JSON payloads, so they pickle trivially and double as
deduplication keys: replaying a file set that contains the same case twice
runs its oracles once, with the identical record fanned out to every
occurrence (corpus bytes unchanged).
Results come back in input order, keeping corpora deterministic for a
given seed regardless of ``jobs``.  Shrinking always happens in the parent
process (the predicate re-runs oracles many times on tiny cases; worker
startup would dominate).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from ..obs.metrics import registry as obs_registry
from ..sched import map_tasks
from .gen import CaseSpec, iter_cases
from .oracles import ORACLE_NAMES, CaseOutcome, OracleFailure, run_oracles
from .shrink import DEFAULT_BUDGET, same_oracle, shrink_case

CASE_FORMAT = "repro/verify-case"
COUNTEREXAMPLE_FORMAT = "repro/verify-counterexample"


def outcome_to_record(outcome: CaseOutcome) -> Dict[str, Any]:
    """The corpus-line form of one case verdict."""
    return {
        "format": CASE_FORMAT,
        "case": outcome.case.to_dict(),
        "status": "ok" if outcome.ok else "fail",
        "checked": list(outcome.checked),
        "failures": [f.to_dict() for f in outcome.failures],
    }


def record_to_outcome(record: Dict[str, Any]) -> CaseOutcome:
    """Inverse of :func:`outcome_to_record`."""
    return CaseOutcome(
        case=CaseSpec.from_dict(record["case"]),
        failures=[OracleFailure.from_dict(f) for f in record.get("failures", [])],
        checked=tuple(record.get("checked", ())),
    )


def _run_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker entry point: dict in, dict out (picklable both ways)."""
    return outcome_to_record(run_oracles(CaseSpec.from_dict(payload)))


@dataclass
class SuiteReport:
    """Aggregate result of one verify run (generated or replayed)."""

    cases: int
    records: List[Dict[str, Any]] = field(default_factory=list)
    counterexamples: List[Dict[str, Any]] = field(default_factory=list)
    corpus_path: Optional[str] = None
    elapsed_s: float = 0.0

    @property
    def failing_records(self) -> List[Dict[str, Any]]:
        return [r for r in self.records if r["status"] != "ok"]

    @property
    def failures(self) -> int:
        return sum(len(r["failures"]) for r in self.records)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def failures_by_oracle(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for record in self.records:
            for failure in record["failures"]:
                tally[failure["oracle"]] = tally.get(failure["oracle"], 0) + 1
        return tally

    def summary(self) -> Dict[str, Any]:
        return {
            "cases": self.cases,
            "failing_cases": len(self.failing_records),
            "failures": self.failures,
            "failures_by_oracle": self.failures_by_oracle(),
            "counterexamples": len(self.counterexamples),
            "corpus": self.corpus_path,
            "elapsed_s": round(self.elapsed_s, 3),
        }


def _publish_metrics(records: Sequence[Dict[str, Any]]) -> None:
    registry = obs_registry()
    registry.counter("verify.cases").inc(len(records))
    total = 0
    for record in records:
        for failure in record["failures"]:
            total += 1
            registry.counter(f"verify.oracle.{failure['oracle']}.failures").inc()
    if total:
        registry.counter("verify.failures").inc(total)


def _write_corpus(path: Union[str, Path], records: Iterable[Dict[str, Any]]) -> None:
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _shrink_record(record: Dict[str, Any], budget: int) -> Dict[str, Any]:
    """Build the counterexample artifact for one failing record."""
    case = CaseSpec.from_dict(record["case"])
    oracle = record["failures"][0]["oracle"]
    shrunk, failure, evaluations = shrink_case(
        case, same_oracle(oracle), budget=budget
    )
    return {
        "format": COUNTEREXAMPLE_FORMAT,
        "original": case.to_dict(),
        "shrunk": shrunk.to_dict(),
        "failure": failure.to_dict(),
        "evaluations": evaluations,
    }


def _write_counterexamples(
    directory: Union[str, Path], artifacts: Sequence[Dict[str, Any]]
) -> List[Path]:
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for artifact in artifacts:
        case = artifact["original"]
        name = f"counterexample-{case['seed']}-{case['index']}.json"
        path = root / name
        path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
        paths.append(path)
    return paths


def run_suite(
    cases: int,
    seed: int,
    jobs: Optional[int] = None,
    corpus_path: Optional[Union[str, Path]] = None,
    counterexample_dir: Optional[Union[str, Path]] = None,
    shrink: bool = True,
    shrink_budget: int = DEFAULT_BUDGET,
    start: int = 0,
) -> SuiteReport:
    """Generate and check ``cases`` seeded cases; optionally shrink failures.

    Deterministic for a given ``(cases, seed, start)`` triple — ``jobs``
    changes wall-clock only, never results or corpus bytes.
    """
    began = time.monotonic()
    specs = list(iter_cases(cases, seed, start=start))
    payloads = [s.to_dict() for s in specs]
    records = map_tasks(_run_payload, payloads, jobs=jobs, keys=payloads)
    _publish_metrics(records)

    report = SuiteReport(cases=len(records), records=records)
    if corpus_path is not None:
        _write_corpus(corpus_path, records)
        report.corpus_path = str(corpus_path)

    if shrink:
        for record in report.failing_records:
            # A crash during the solve has no oracle to re-match; shrink
            # against the crash marker itself (run_oracles reports it).
            try:
                report.counterexamples.append(
                    _shrink_record(record, budget=shrink_budget)
                )
            except ValueError:
                # Flaky failure (did not reproduce on re-run): keep the
                # original record as the artifact, unshrunk.
                report.counterexamples.append(
                    {
                        "format": COUNTEREXAMPLE_FORMAT,
                        "original": record["case"],
                        "shrunk": record["case"],
                        "failure": record["failures"][0],
                        "evaluations": 1,
                    }
                )
    if counterexample_dir is not None and report.counterexamples:
        _write_counterexamples(counterexample_dir, report.counterexamples)
    report.elapsed_s = time.monotonic() - began
    return report


def _validate_oracle_names(path: Path, document: Dict[str, Any]) -> None:
    """Reject records referencing oracles this build does not know.

    Renaming or removing an oracle must not let its corpus entries degrade
    into silently-unchecked specs: a record whose ``checked`` list or
    failure verdicts name an unknown oracle is a corpus/catalog mismatch,
    and replay errors loudly instead of replaying a weaker suite.  (Records
    that merely *lack* newer oracles replay fine — adding oracles never
    invalidates an old corpus.)
    """
    named = set(document.get("checked", ()))
    named.update(f.get("oracle") for f in document.get("failures", ()))
    if "failure" in document:  # counterexample artifact
        named.add(document["failure"].get("oracle"))
    known = set(ORACLE_NAMES) | {"crash"}
    unknown = sorted(str(n) for n in named - known)
    if unknown:
        raise ValueError(
            f"{path}: record references unknown oracle(s) {unknown}; this "
            f"build knows {sorted(known)} — regenerate the corpus or fix "
            "the oracle name"
        )


def _specs_from_file(path: Path) -> List[CaseSpec]:
    """Extract every case spec a corpus / artifact / spec file contains."""
    text = path.read_text()
    specs: List[CaseSpec] = []
    stripped = text.strip()
    documents: List[Any]
    if stripped.startswith("{") and "\n{" not in stripped:
        # One pretty-printed JSON document (counterexample artifact).
        documents = [json.loads(stripped)]
    else:
        documents = [json.loads(line) for line in text.splitlines() if line.strip()]
    for document in documents:
        if not isinstance(document, dict):
            raise ValueError(f"{path}: expected JSON objects, got {document!r}")
        if document.get("format") == COUNTEREXAMPLE_FORMAT:
            _validate_oracle_names(path, document)
            specs.append(CaseSpec.from_dict(document["shrunk"]))
        elif document.get("format") == CASE_FORMAT or "case" in document:
            _validate_oracle_names(path, document)
            specs.append(CaseSpec.from_dict(document["case"]))
        elif "offsets" in document:
            specs.append(CaseSpec.from_dict(document))
        else:
            raise ValueError(
                f"{path}: unrecognized record (no format/case/offsets key)"
            )
    return specs


def replay_paths(
    paths: Sequence[Union[str, Path]],
    jobs: Optional[int] = None,
    corpus_path: Optional[Union[str, Path]] = None,
) -> SuiteReport:
    """Re-run the oracles over every case stored in ``paths``.

    No random generation happens here — replay is exactly as deterministic
    as the stored specs, which is what makes the committed regression
    corpus a tier-1 test.
    """
    began = time.monotonic()
    specs: List[CaseSpec] = []
    for path in paths:
        specs.extend(_specs_from_file(Path(path)))
    payloads = [s.to_dict() for s in specs]
    records = map_tasks(_run_payload, payloads, jobs=jobs, keys=payloads)
    _publish_metrics(records)
    report = SuiteReport(cases=len(records), records=records)
    if corpus_path is not None:
        _write_corpus(corpus_path, records)
        report.corpus_path = str(corpus_path)
    report.elapsed_s = time.monotonic() - began
    return report
