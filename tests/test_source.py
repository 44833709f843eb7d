"""The source keeps only what the source reads.

Every dataclass or NamedTuple field and every property in `src/pursuitsim`
must be read somewhere in `src/`: as an attribute load (`x.name`) or as a
string equal to its name (`getattr(obj, "name")`). Writes do not count.

Every module-level function and class must be referenced in `src/` outside
its own definition: by name, as an attribute, in an import (the package's
`__init__` exports count) or as a string. A recursive call does not count.

The scans match by name only. A field whose name is also read on some other
object, such as a `speed` field next to a read of `spec.speed`, passes even
when nothing reads the field itself. Methods are not scanned, and a name-only
scan could not see one whose name is also called on another class: a target
path's `velocity` method would have passed, read or not, because
`Pilot.velocity` is called.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional

SRC = Path(__file__).resolve().parent.parent / "src" / "pursuitsim"

# (class, member) -> why it stays although nothing in src/ reads it
ALLOWED_UNREAD = {
    ("PerceptionFrame", "detection"): "perfbench/tracer.py reads a detected frame's blob size and box",
    ("EngagementResult", "bounds_center"): "the replay input of harness.classify_hit",
}

# (module, name) -> why a module-level function or class stays although nothing in src/ references it
ALLOWED_UNREFERENCED: dict[tuple[str, str], str] = {}


def _modules() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in sorted(SRC.glob("*.py"))}


def _trees() -> list[ast.Module]:
    return list(_modules().values())


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


def definitions(modules: dict[str, ast.Module]) -> set[tuple[str, str]]:
    """(module, name) of every module-level function and class."""
    return {(mod, stmt.name) for mod, tree in modules.items() for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}


def references(modules: dict[str, ast.Module]) -> set[tuple[Optional[tuple[str, str]], str]]:
    """(enclosing module-level definition, or None, and name) of every name or
    attribute loaded, every name imported and every string constant."""
    out = set()
    for mod, tree in modules.items():
        for stmt in tree.body:
            owner = (mod, stmt.name) if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    out.add((owner, node.id))
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    out.add((owner, node.attr))
                elif isinstance(node, ast.alias):
                    out.add((owner, node.name))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    out.add((owner, node.value))
    return out


def unreferenced(modules: dict[str, ast.Module]) -> set[tuple[str, str]]:
    refs = references(modules)
    return {d for d in definitions(modules) if not any(name == d[1] and owner != d for owner, name in refs)}


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


def test_every_module_level_function_and_class_is_referenced_in_src():
    modules = _modules()
    assert {("targets", "CurveShape"), ("cli", "main")} <= definitions(modules)  # the scan sees both kinds
    unref = unreferenced(modules)
    assert unref - ALLOWED_UNREFERENCED.keys() == set(), "functions or classes nothing in src/ references"
    assert ALLOWED_UNREFERENCED.keys() - unref == set(), "stale ALLOWED_UNREFERENCED entries"


def test_scan_flags_an_unreferenced_definition():
    modules = {
        "a": ast.parse(
            "def used(): return 1\n"
            "def recursive(n): return recursive(n - 1) if n else used()\n"
            "class Exported: pass\n"
            "class Based: pass\n"
            "class Child(Based): pass\n"
        ),
        "__init__": ast.parse("from .a import Exported\n"),
    }
    assert unreferenced(modules) == {("a", "recursive"), ("a", "Child")}
