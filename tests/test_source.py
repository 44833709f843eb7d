"""The source keeps only what the source reads.

Every dataclass or NamedTuple field and every property in `src/pursuitsim`
must be read somewhere in `src/`: as an attribute load (`x.name`) or as a
string equal to its name (`getattr(obj, "name")`). Writes do not count.

The scan matches by name only. A field whose name is also read on some other
object, such as a `speed` field next to a read of `spec.speed`, passes even
when nothing reads the field itself.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pursuitsim"

# (class, member) -> why it stays although nothing in src/ reads it
ALLOWED_UNREAD = {
    ("PerceptionFrame", "detection"): "perfbench/tracer.py reads a detected frame's blob size and box",
    ("EngagementResult", "bounds_center"): "the replay input of harness.classify_hit",
}


def _trees() -> list[ast.Module]:
    return [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in sorted(SRC.glob("*.py"))]


def _name(node: ast.expr) -> str:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def members(trees: list[ast.Module]) -> set[tuple[str, str]]:
    """(class, name) of every dataclass or NamedTuple field and every property."""
    out = set()
    for tree in trees:
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            record = ("dataclass" in map(_name, cls.decorator_list)
                      or "NamedTuple" in map(_name, cls.bases))
            for stmt in cls.body:
                if record and isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    out.add((cls.name, stmt.target.id))
                elif isinstance(stmt, ast.FunctionDef) and "property" in map(_name, stmt.decorator_list):
                    out.add((cls.name, stmt.name))
    return out


def reads(trees: list[ast.Module]) -> set[str]:
    """Attribute names loaded anywhere, and every string constant."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def test_every_field_and_property_is_read_in_src():
    trees = _trees()
    found = members(trees)
    assert ("Pose", "velocity") in found and ("RatesConfig", "dt") in found  # the scan sees both kinds
    read = reads(trees)
    unread = {m for m in found if m[1] not in read}
    assert unread - ALLOWED_UNREAD.keys() == set(), "fields or properties nothing in src/ reads"
    # an exception that src/ reads again, or that no longer exists, leaves the list
    assert ALLOWED_UNREAD.keys() - unread == set(), "stale ALLOWED_UNREAD entries"


def test_scan_flags_an_unread_field():
    trees = [ast.parse(
        "from dataclasses import dataclass\n"
        "@dataclass\nclass A:\n    kept: int\n    dropped: int\n"
        "    @property\n    def shown(self): return self.kept\n"
        "    @property\n    def hidden(self): return 0\n"
        "print(A(1, 2).shown)\n"
    )]
    found = members(trees)
    assert found == {("A", "kept"), ("A", "dropped"), ("A", "shown"), ("A", "hidden")}
    read = reads(trees)
    assert {m for m in found if m[1] not in read} == {("A", "dropped"), ("A", "hidden")}
