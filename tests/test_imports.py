"""Every name a module imports is used in it, and every dataclass field
that `src/ringlat` declares is read in it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the package's __init__.py imports names only to re-export them
MODULES = [p for p in sorted((ROOT / "src" / "ringlat").glob("*.py")) if p.name != "__init__.py"] \
    + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """The names that source binds by an import statement and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    assert unused_imports("import os.path\nfrom a import b as c, d\nos.sep\nd()\n") == ["c"]


def test_every_import_is_used():
    unused = {p.relative_to(ROOT).as_posix(): names
              for p in MODULES if (names := unused_imports(p.read_text()))}
    assert unused == {}


def unread_fields(sources):
    """The fields, as 'Class.field', that a @dataclass of sources declares and
    no attribute access in sources reads."""
    trees = [ast.parse(source) for source in sources]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    declared = []
    for tree in trees:
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                    getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                    for d in cls.decorator_list):
                declared += [(cls.name, s.target.id) for s in cls.body
                             if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
    return sorted(f"{cls}.{name}" for cls, name in declared if name not in read)


def test_unread_fields_are_found():
    source = ("from dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass P:\n    x: int\n    y: int = 0\n"
              "@dataclass\nclass Q:\n    z: int\n"
              "def f(p, q):\n    q.z = 1\n    return p.x\n")
    assert unread_fields([source]) == ["P.y", "Q.z"]


def test_every_dataclass_field_is_read():
    sources = [p.read_text() for p in sorted((ROOT / "src" / "ringlat").glob("*.py"))]
    assert unread_fields(sources) == []
