"""Every module, top-level function and class, record field and imported name in the
package is used in it.

A re-export from `__init__.py` is not a caller: the names and modules it
lists must also be used by the program itself.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "scenemt"

# names, and Class.field record fields, kept although nothing in the package reads them
KEPT = {
    "token_accuracy": "the checked accuracy entry point, which the tests call; train calls "
                      "the unchecked _accuracy",
    "BeamResult.finished": "the benchmark's decode checks read it, and per-sentence decode "
                           "telemetry will record it",
    "TrainResult.stopped_early": "the benchmark's time-to-accuracy run reads it to tell "
                                 "whether training reached its target accuracy",
}
# modules the program starts from rather than imports
ENTRY_MODULES = {"__init__", "__main__", "cli"}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_every_top_level_name_is_used():
    trees = _trees()
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used | set(KEPT)
        and not node.name.startswith("cmd_")
    ]
    assert not unused, f"defined but called from nowhere in the package: {unused}"


def _is_record(cls):
    """Whether a class definition is a dataclass or a NamedTuple."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
    return (any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators)
            or any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases))


def test_every_record_field_is_read():
    """A field is read by some attribute load; `x.field.append(...)` only writes it."""
    trees = _trees()
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    appended = {id(node.func.value) for node in nodes
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"}
    read = {node.attr for node in nodes
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in appended}
    unread = [
        f"{module}:{cls.name}.{stmt.target.id}"
        for module, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_record(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        and stmt.target.id not in read and f"{cls.name}.{stmt.target.id}" not in KEPT
    ]
    assert not unread, f"record fields no attribute access in the package reads: {unread}"


def test_every_module_is_imported_by_another():
    trees = _trees()
    imported = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:  # from . import a, b
                    imported.update(alias.name for alias in node.names)
                else:  # from .a import x
                    imported.add(node.module)
    orphans = sorted(set(trees) - ENTRY_MODULES - imported)
    assert not orphans, f"modules no other module imports: {orphans}"


def test_every_imported_name_is_used():
    unused = []
    for module, tree in _trees().items():
        if module == "__init__":  # its imports are the package's re-exports
            continue
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]  # `import a.b` binds `a`
                if name not in used:
                    unused.append(f"{module}:{name}")
    assert not unused, f"imported but never used: {unused}"
