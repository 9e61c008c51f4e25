"""Every import in the package modules and the test modules is used.

The project depends on no linter, so this walks each module's syntax tree:
an import at module level, or under ``if TYPE_CHECKING:``, binds names that
the rest of the module must read.
"""

import ast
from pathlib import Path

import pytest

import ffa

PACKAGE, TESTS = Path(ffa.__file__).parent, Path(__file__).parent
MODULES = [*sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"),
           *sorted(TESTS.glob("*.py"))]


def _imports(tree: ast.Module):
    """(bound name, line) of each module-level or TYPE_CHECKING import."""
    nodes = list(tree.body)
    for node in tree.body:
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            nodes.extend(node.body)
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotation_strings(tree: ast.Module):
    """The quoted annotations, each parsed as the expression it names."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations = [a and a.annotation for a in (*args.posonlyargs, *args.args,
                                                         *args.kwonlyargs, args.vararg, args.kwarg)]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        else:
            continue
        for annotation in filter(None, annotations):
            for leaf in ast.walk(annotation):
                if isinstance(leaf, ast.Constant) and isinstance(leaf.value, str):
                    yield ast.parse(leaf.value, mode="eval")


def _used_names(tree: ast.Module) -> set[str]:
    trees = [tree, *_annotation_strings(tree)]
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: p.name if p.parent == PACKAGE else f"tests/{p.name}")
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = [f"{path.name}:{line}: {name}" for name, line in _imports(tree) if name not in used]
    assert unused == []


def test_an_unused_import_is_caught():
    tree = ast.parse("import os\nfrom typing import TYPE_CHECKING\n"
                     "if TYPE_CHECKING:\n    from x import Y\n"
                     "def f(a: 'Z') -> None:\n    return TYPE_CHECKING\n")
    assert [name for name, _ in _imports(tree) if name not in _used_names(tree)] == ["os", "Y"]
