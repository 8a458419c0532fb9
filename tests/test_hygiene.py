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


def test_every_recording_op_is_traced():
    """Every public function in engine.py that records a tape node (calls
    `_record` or `_binary`) is listed in `engine.__all__`, which the
    benchmark tracer wraps; `getitem` is the one the tracer adds itself.
    An op left off the list would drop out of the traced op counts
    without failing them."""
    from tecnet import engine

    tree = ast.parse((ROOT / "src" / "tecnet" / "engine.py").read_text())
    recording = {fn.name for fn in tree.body
                 if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                 and {"_record", "_binary"} & referenced_names(fn)}
    assert recording - set(engine.__all__) == {"getitem"}


def test_forward_methods_take_no_optional_parameters():
    """No `forward` in src/tecnet has a parameter with a default, so no
    optional side channel rides along a forward call; `nn.capture()` is the
    one way to see inside one."""
    found = []
    for path in (ROOT / "src" / "tecnet").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "forward":
                args = node.args
                if args.defaults or any(d is not None for d in args.kw_defaults):
                    found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, f"forward with an optional parameter: {found}"


def test_no_module_reads_the_environment():
    """No module in src/tecnet reads `os.environ` or `os.getenv`: flags and
    config files are the only ways to set a value, so no environment
    variable silently overrides one."""
    found = []
    for path in (ROOT / "src" / "tecnet").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ({node.attr} if isinstance(node, ast.Attribute) else
                     {a.name for a in node.names} if isinstance(node, ast.ImportFrom) else set())
            if names & {"environ", "environb", "getenv", "getenvb"}:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, f"environment read: {found}"


def test_every_config_field_but_the_toggles_varies_across_the_presets():
    """A non-bool TecNetConfig field holds at least two values across
    PRESETS; one with a single value is a constant dressed as a knob.  The
    bool fields are the ablation toggles that criterion 10 switches."""
    from dataclasses import fields
    from tecnet.model import PRESETS, TecNetConfig

    configs = [preset() for preset in PRESETS.values()]
    fixed = [f.name for f in fields(TecNetConfig) if f.type != "bool"
             and len({repr(getattr(cfg, f.name)) for cfg in configs}) < 2]
    assert not fixed, f"one value in every preset: {fixed}"


def test_no_hand_written_caches():
    """No module in src/tecnet assigns an empty dict at module level or to a
    `self.` attribute, the shape every hand-written cache took; a constant
    array that layers share is built by a builder under `engine.shared`."""
    found = []
    for path in (ROOT / "src" / "tecnet").glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = {id(stmt) for stmt in tree.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            on_self = any(isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                          and t.value.id == "self" for t in targets)
            if (id(node) in top or on_self) and isinstance(value, ast.Dict) and not value.keys:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, f"hand-written cache (build it under engine.shared): {found}"


def test_checked_dataclasses_are_frozen():
    """Every class in src/tecnet that checks its fields in `__post_init__` is
    a `@dataclass(frozen=True)`: an assignment after `__post_init__` would
    skip the checks, so a frozen config is one that was checked."""
    found = []
    for path in (ROOT / "src" / "tecnet").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not (isinstance(node, ast.ClassDef) and any(
                    isinstance(f, ast.FunctionDef) and f.name == "__post_init__"
                    for f in node.body)):
                continue
            frozen = any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
                         and d.func.id == "dataclass"
                         and any(k.arg == "frozen" and isinstance(k.value, ast.Constant)
                                 and k.value.value is True for k in d.keywords)
                         for d in node.decorator_list)
            if not frozen:
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}")
    assert not found, f"checked in __post_init__ but not frozen: {found}"


def test_no_stride_tricks():
    """No module in src/tecnet uses `numpy.lib.stride_tricks`: a wrong stride
    in a hand-made view reads memory outside its array, and the kernels take
    their taps as plain slices instead."""
    found = []
    for path in (ROOT / "src" / "tecnet").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([node.module or ""] if isinstance(node, ast.ImportFrom) else
                     [a.name for a in node.names] if isinstance(node, ast.Import) else
                     [node.attr] if isinstance(node, ast.Attribute) else [])
            if any("stride_tricks" in name for name in names):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not found, f"stride tricks: {found}"
