"""Source hygiene: every imported name is used where it is imported, and
every top-level definition in the package is used somewhere.

No linter ships with the project, so these AST scans are the guard.  A name
listed in the module's ``__all__`` counts as used (it is re-exported).
"""

import ast
import re
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


def referenced_names(node: ast.AST) -> set[str]:
    """Names a subtree reads: bare names, attributes and `from` imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names |= {alias.name for alias in sub.names}
    return names


def test_no_dead_definitions():
    """Every top-level function and class in src/tecnet is referenced outside
    its own definition, in src/, tests/, demos/ or a pyproject entry point."""
    entry_points = re.findall(r'=\s*"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text())
    used = set(entry_points)
    defined = []
    for path in SOURCES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            own = isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            if own and path.is_relative_to(ROOT / "src" / "tecnet"):
                defined.append((stmt.name, f"{path.relative_to(ROOT)}:{stmt.lineno}"))
            # a definition's own body (recursion, its methods) does not count
            used |= referenced_names(stmt) - ({stmt.name} if own else set())
    dead = [f"{where}: {name}" for name, where in defined if name not in used]
    assert not dead, f"defined but never referenced: {dead}"


def test_benchmark_tracer_wraps_the_engine(monkeypatch):
    """perfbench/tracer.py wraps every name in engine.__all__ (less its
    NOT_OPS) as an op that returns a Tensor, so a traced nano train step
    must run; an export that is not a Tensor op breaks every traced run."""
    from tecnet.model import TecNet, nano_config
    from tecnet.synth import SynthSpec, make_dataset
    from tecnet.training import TrainSchedule, train

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    data = make_dataset(SynthSpec(seed=5, count=1, size=64))
    with tracer.Tracer() as tr:
        train(TecNet(nano_config(), seed=0), data, TrainSchedule(steps=1, batch_size=1))
    assert tr.counters["tapes"] == 1 and tr.op_calls["matmul"] > 0
