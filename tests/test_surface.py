"""Every public name of ``heislab`` is reached by the package itself.

A name listed in a module's ``__all__`` must be used somewhere in
``src/heislab`` outside its own definition, or be allowlisted below with
its reason; a name kept alive only by its own unit tests fails here.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import heislab

# public names no package code reaches, each kept for the stated reason
ALLOWLIST = {
    "save_operator": "documented in the README for persisting a grid operator",
    "load_operator": "documented in the README as the inverse of save_operator",
    "build_sublaplacian": "the dense -Delta the benchmark tracer prebuilds; a test oracle",
    "sublaplacian_spectrum": "the full spectrum the benchmark tracer prebuilds; a test oracle",
}

SOURCE = Path(heislab.__file__).parent


def _public_names():
    """(module file, name) for every entry of every submodule's ``__all__``."""
    for info in pkgutil.iter_modules(heislab.__path__):
        module = importlib.import_module(f"heislab.{info.name}")
        for name in getattr(module, "__all__", ()):
            yield Path(module.__file__).name, name


def _definition_spans(tree):
    """Top-level name -> (first line, last line) of its definition."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            spans[node.name] = (node.lineno, node.end_lineno)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    spans[target.id] = (node.lineno, node.end_lineno)
    return spans


def _unreached():
    """Public names with no use in the package outside their definition."""
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SOURCE.glob("*.py"))
    }
    used: dict[str, list[tuple[str, int]]] = {}
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.setdefault(node.id, []).append((file, node.lineno))
    spans = {file: _definition_spans(tree) for file, tree in trees.items()}
    unreached = set()
    for home, name in _public_names():
        assert name in spans[home], f"{home} lists {name!r} but does not define it"
        first, last = spans[home][name]
        if all(file == home and first <= line <= last for file, line in used.get(name, [])):
            unreached.add(name)
    return unreached


def test_every_public_name_is_reached():
    unreached = _unreached()
    assert not unreached - set(ALLOWLIST), (
        f"public names only their own tests reach: {sorted(unreached - set(ALLOWLIST))}"
    )
    # an allowlisted name that the package starts to use leaves the list
    assert set(ALLOWLIST) <= unreached
