"""Import hygiene: every name a package module imports is used or re-exported.

Deleting a function can leave its import behind, and no linter runs in CI,
so this walks each module's syntax tree with the standard library alone.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "altdet"
MODULES = sorted(SRC.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            yield from (a.annotation for a in every if a is not None and a.annotation is not None)
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, inside quoted annotations, or listed in __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {sub.id for sub in ast.walk(quoted) if isinstance(sub, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def test_modules_found():
    assert SRC / "__init__.py" in MODULES and len(MODULES) > 1


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    used = _used(tree)
    unused = sorted(f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used)
    assert not unused, f"{module.name} imports names it never uses: {', '.join(unused)}"
