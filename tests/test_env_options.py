"""Guard against knob creep: the environment variables ``src/repro`` reads.

Every ``REPRO_*`` variable is a second code path to test, document and
keep alive, so the set is pinned to observability (``REPRO_OBS``).
Adding one means changing this test on purpose.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Tuple

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

ALLOWED = {"REPRO_OBS"}


def _is_environ(node: ast.AST) -> bool:
    """``os.environ`` (under any module alias) or a bare ``environ``."""
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def _is_env_call(func: ast.AST) -> bool:
    """``environ.get/pop/setdefault(...)`` or ``getenv(...)``."""
    if isinstance(func, ast.Name):
        return func.id == "getenv"
    if not isinstance(func, ast.Attribute):
        return False
    if func.attr == "getenv":
        return True
    return func.attr in ("get", "pop", "setdefault") and _is_environ(func.value)


def env_keys(source: str) -> Iterator[Tuple[int, ast.AST]]:
    """``(line, key expression)`` for every environment read in ``source``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and node.args and _is_env_call(node.func):
            yield node.lineno, node.args[0]
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            yield node.lineno, node.slice
        elif (
            isinstance(node, ast.Compare)
            and any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
            and any(_is_environ(c) for c in node.comparators)
        ):
            yield node.lineno, node.left


def _literal(key: ast.AST) -> str | None:
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        return key.value
    return None


def test_scanner_sees_every_read_form():
    source = "\n".join(
        [
            "import os",
            "from os import environ, getenv",
            'os.environ.get("REPRO_A", "1")',
            'os.getenv("REPRO_B")',
            'os.environ["REPRO_C"]',
            '"REPRO_D" in os.environ',
            'environ.get("REPRO_E")',
            'getenv("REPRO_F")',
            'os.environ.get("HOME")',
        ]
    )
    names = {_literal(key) for _, key in env_keys(source)}
    assert names == {f"REPRO_{c}" for c in "ABCDEF"} | {"HOME"}


def test_only_the_allowed_repro_variables_are_read():
    found = {}
    computed = []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC.parent)
        for line, key in env_keys(path.read_text(encoding="utf-8")):
            name = _literal(key)
            if name is None:
                computed.append(f"{where}:{line}")
            elif name.startswith("REPRO_"):
                found.setdefault(name, []).append(f"{where}:{line}")
    # A computed key would hide its name from this guard.
    assert not computed, f"environment reads with a computed key: {computed}"
    assert set(found) == ALLOWED, found
