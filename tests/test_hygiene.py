"""Source hygiene: every imported name is used where it is imported.

No linter ships with the project, so this AST scan is the guard.  A name
listed in the module's ``__all__`` counts as used (it is re-exported).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_sources_found():
    assert len(SOURCES) > 20


def test_no_unused_imports():
    found = {}
    for path in SOURCES:
        names = unused_imports(ast.parse(path.read_text(), filename=str(path)))
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert not found, f"imported but never used: {found}"
