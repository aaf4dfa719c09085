"""Every name a module imports is used in it."""

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
