"""The declared Python floor (``requires-python`` in pyproject.toml) can
import every module of ``src/``.

Checks per file: it parses with the floor's grammar; no
``dataclass(...)`` passes ``slots=`` or ``kw_only=`` and no ``field(...)``
``kw_only=`` (3.10 keywords that parse everywhere but fail at import on
3.9); and no annotation is an ``X | Y`` union (3.10 syntax that
``from __future__ import annotations`` lets parse, until something
evaluates the annotation).
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


#: (callee, keyword) pairs that parse everywhere but fail at import
#: below 3.10
KEYWORDS_3_10 = {("dataclass", "slots"), ("dataclass", "kw_only"),
                 ("field", "kw_only")}


def _annotations(node):
    """The annotations *node* carries, a string one parsed."""
    found = [getattr(node, "annotation", None), getattr(node, "returns", None)]
    for annotation in filter(None, found):
        if isinstance(annotation, ast.Constant) and \
                isinstance(annotation.value, str):
            annotation = ast.parse(annotation.value, mode="eval")
        yield annotation


def floor_violations(source, floor):
    """What in *source* the interpreter at *floor* cannot import.

    Beside the grammar: ``slots=`` / ``kw_only=`` keywords of 3.10, and
    an ``X | Y`` annotation, which fails on 3.9 wherever annotations are
    evaluated (``typing.get_type_hints``)."""
    try:
        tree = ast.parse(source, feature_version=floor)
    except SyntaxError as exc:
        return [f"line {exc.lineno}: {exc.msg}"]
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            found += [f"line {node.lineno}: {name}({kw.arg}=...)"
                      for kw in node.keywords
                      if (name, kw.arg) in KEYWORDS_3_10]
        found += [f"line {node.lineno}: X | Y annotation"
                  for annotation in _annotations(node)
                  if any(isinstance(part, ast.BinOp) and
                         isinstance(part.op, ast.BitOr)
                         for part in ast.walk(annotation))]
    return found


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
    kw_only = slots.replace("(slots=True)", "(kw_only=True)")
    assert floor_violations(kw_only, floor) == [
        "line 2: dataclass(kw_only=...)"]
    field_kw_only = ("from dataclasses import dataclass, field\n"
                     "@dataclass\n"
                     "class Message:\n"
                     "    size: int = field(default=0, kw_only=True)\n")
    assert floor_violations(field_kw_only, floor) == [
        "line 4: field(kw_only=...)"]
    union = ("from __future__ import annotations\n"
             "def size(message: bytes | None) -> int:\n"
             "    return 0\n")
    assert floor_violations(union, floor) == ["line 2: X | Y annotation"]
    assert floor_violations(union.replace("bytes | None", "'bytes | None'"),
                            floor) == ["line 2: X | Y annotation"]
    assert floor_violations(union.replace(" | None", ""), floor) == []
    assert floor_violations(slots.replace("(slots=True)", ""), floor) == []
