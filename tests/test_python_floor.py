"""The declared Python floor (``requires-python`` in pyproject.toml) can
import every module of ``src/``.

Two checks per file: it parses with the floor's grammar, and no
``dataclass(...)`` decorator passes ``slots=`` (a 3.10 keyword that
parses everywhere but fails at import on 3.9).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_floor():
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(
        r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)', text).groups()
    return int(major), int(minor)


def floor_violations(source, floor):
    """What in *source* the interpreter at *floor* cannot import."""
    try:
        tree = ast.parse(source, feature_version=floor)
    except SyntaxError as exc:
        return [f"line {exc.lineno}: {exc.msg}"]
    return [f"line {node.lineno}: dataclass(slots=...)"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id",
                        getattr(node.func, "attr", None)) == "dataclass"
            and any(kw.arg == "slots" for kw in node.keywords)]


def test_every_source_file_imports_at_the_floor():
    floor = declared_floor()
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        violations = floor_violations(path.read_text(), floor)
        if violations:
            found[path.relative_to(ROOT).as_posix()] = violations
    assert found == {}


def test_a_planted_violation_of_each_kind_is_found():
    floor = declared_floor()
    slots = ("from dataclasses import dataclass\n"
             "@dataclass(slots=True)\n"
             "class Message:\n"
             "    size: int\n")
    dotted = slots.replace("from dataclasses import dataclass",
                           "import dataclasses").replace(
        "@dataclass(", "@dataclasses.dataclass(")
    match = "match x:\n    case 1:\n        pass\n"
    assert floor_violations(slots, floor) == [
        "line 2: dataclass(slots=...)"]
    assert floor_violations(dotted, floor) == [
        "line 2: dataclass(slots=...)"]
    assert len(floor_violations(match, floor)) == 1
    assert floor_violations(slots.replace("(slots=True)", ""), floor) == []
