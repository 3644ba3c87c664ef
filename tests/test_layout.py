"""Every top-level function and class in the package has a caller in the package."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "scenemt"

# names kept although nothing in the package refers to them
KEPT = {
    "transpose": "a reference op that tests compose attention from",
    "softmax_rows": "a reference op that tests compose attention from",
    "sum_all": "reduces a graph to a scalar for the gradient check",
    "grad_check": "the gradient oracle",
    "write_copy_task": "writes the copy-task fixture files that tests train on",
    "token_accuracy": "the checked accuracy entry point; the benchmark times it as a phase",
}
# called only by their own tests; ROADMAP item 6 plans their deletion with those tests
KEPT.update(dict.fromkeys(
    ("ParallelPair", "filter_corpus", "train_bpe", "bpe_join", "segment_sentence",
     "write_bpe", "read_bpe", "word_subword_alignment"),
    "test-only textpipe code awaiting deletion with its tests",
))


def test_every_top_level_name_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = {alias.asname or alias.name
                for node in ast.walk(trees["__init__.py"]) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    unused = [
        f"{module}:{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in used | exported | set(KEPT)
        and not node.name.startswith("cmd_")
    ]
    assert not unused, f"defined but called from nowhere in the package: {unused}"
