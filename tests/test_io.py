"""Tests for JSON serialization of partitioning artifacts."""

import json

import pytest

from repro.core import BankMapping, partition, widen_solution
from repro.io import (
    SerializationError,
    load_mapping,
    load_solution,
    mapping_from_dict,
    mapping_to_dict,
    pattern_from_dict,
    pattern_to_dict,
    save_mapping,
    save_solution,
    solution_from_dict,
    solution_to_dict,
)
from repro.patterns import log_pattern, se_pattern


class TestPatternRoundtrip:
    def test_roundtrip(self):
        p = log_pattern()
        assert pattern_from_dict(pattern_to_dict(p)) == p

    def test_name_preserved(self):
        p = se_pattern()
        assert pattern_from_dict(pattern_to_dict(p)).name == "se"

    def test_malformed(self):
        with pytest.raises(SerializationError):
            pattern_from_dict({"name": "x"})


class TestSolutionRoundtrip:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: partition(log_pattern()),
            lambda: partition(log_pattern(), n_max=10),
            lambda: partition(log_pattern(), n_max=10, same_size=False),
            lambda: widen_solution(partition(log_pattern()), 2),
        ],
        ids=["direct", "constrained", "two-level", "wide"],
    )
    def test_roundtrip(self, make):
        original = make()
        restored = solution_from_dict(solution_to_dict(original))
        assert restored == original

    def test_restored_solution_banks_identically(self):
        original = partition(log_pattern())
        restored = solution_from_dict(solution_to_dict(original))
        for element in [(0, 0), (5, 7), (11, 3)]:
            assert restored.bank_of(element) == original.bank_of(element)

    def test_json_serializable(self):
        payload = solution_to_dict(partition(log_pattern()))
        assert json.loads(json.dumps(payload)) == payload

    def test_wrong_format_rejected(self):
        payload = solution_to_dict(partition(log_pattern()))
        payload["format"] = "something-else"
        with pytest.raises(SerializationError):
            solution_from_dict(payload)

    def test_wrong_version_rejected(self):
        payload = solution_to_dict(partition(log_pattern()))
        payload["version"] = 99
        with pytest.raises(SerializationError):
            solution_from_dict(payload)

    def test_inconsistent_payload_rejected(self):
        """A tampered file claiming delta=0 with a conflicting hash fails."""
        payload = solution_to_dict(partition(log_pattern()))
        payload["n_banks"] = 4  # 13 elements cannot be conflict-free in 4 banks
        with pytest.raises(SerializationError, match="inconsistent"):
            solution_from_dict(payload)

    def test_missing_key_rejected(self):
        payload = solution_to_dict(partition(log_pattern()))
        del payload["alpha"]
        with pytest.raises(SerializationError):
            solution_from_dict(payload)

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("n_banks", 0, "n_banks must be at least 1"),
            ("n_unconstrained", 0, "n_unconstrained must be at least 1"),
            ("bank_ports", 0, "bank_ports must be at least 1"),
            ("alpha", [5], "needs 2 alpha components and 0 or 2 extents, got 1 and 2"),
            ("alpha", [5, 1, 1], "got 3 and 2"),
            ("extents", [5], "got 2 and 1"),
        ],
        ids=[
            "zero-banks",
            "zero-unconstrained",
            "zero-ports",
            "short-alpha",
            "long-alpha",
            "short-extents",
        ],
    )
    def test_out_of_range_field_rejected(self, field, value, match):
        """Counts below 1 and vectors of the wrong length are malformed
        documents, not a raw ZeroDivisionError or DimensionMismatchError."""
        payload = solution_to_dict(partition(log_pattern()))
        payload[field] = value
        with pytest.raises(SerializationError, match=match):
            solution_from_dict(payload)


class TestFiles:
    def test_solution_file_roundtrip(self, tmp_path):
        path = tmp_path / "solution.json"
        original = partition(log_pattern(), n_max=10)
        save_solution(original, path)
        assert load_solution(path) == original

    def test_mapping_file_roundtrip(self, tmp_path):
        path = tmp_path / "mapping.json"
        original = BankMapping(solution=partition(se_pattern()), shape=(8, 10))
        save_mapping(original, path)
        restored = load_mapping(path)
        assert restored.shape == original.shape
        assert restored.solution == original.solution
        assert restored.verify_bijective()

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            load_solution(path)

    def test_mapping_dict_roundtrip(self):
        mapping = BankMapping(solution=partition(se_pattern()), shape=(8, 10))
        restored = mapping_from_dict(mapping_to_dict(mapping))
        assert restored.shape == mapping.shape

    def test_mapping_wrong_format(self):
        mapping = BankMapping(solution=partition(se_pattern()), shape=(8, 10))
        payload = mapping_to_dict(mapping)
        payload["format"] = "nope"
        with pytest.raises(SerializationError):
            mapping_from_dict(payload)
