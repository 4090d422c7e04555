"""Every public name and member of ``heislab`` is reached by the package itself.

A name listed in a module's ``__all__`` must be used somewhere in
``src/heislab`` outside its own definition, every public field and public
non-dunder method of a public class must be read there, and every public
method of the grid model ``grid._GridModel`` must be called there, or be
allowlisted below with its reason; a name, member or model method kept
alive only by its own unit tests fails here.  So does a module-level
private function or class, or a private non-dunder method of the grid
model, that nothing in ``src/heislab`` reaches outside its own definition:
those have no allowlist.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import heislab

# public names no package code reaches, each kept for the stated reason
ALLOWLIST = {
    "sublaplacian_spectrum": "the full spectrum the benchmark tracer prebuilds; a test oracle",
    "singular_values": (
        "the direct-sum SVD the benchmark tracer wraps and the dense oracles take; "
        "the model adds its pieces to the same private accumulator, _DirectSum"
    ),
}

# public class members no package code reads, each kept for the stated reason
MEMBER_ALLOWLIST: dict[str, str] = {}

# public methods of ``grid._GridModel`` no package code calls, each kept for
# the stated reason
MODEL_METHOD_ALLOWLIST: dict[str, str] = {}

SOURCE = Path(heislab.__file__).parent


def _trees():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SOURCE.glob("*.py"))
    }


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
    trees = _trees()
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


def _own_calls(tree):
    """Class name of every ``cls(...)`` call inside a class body, keyed by
    the id of the call node."""
    return {
        id(node): cls.name
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in ast.walk(cls)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "cls"
    }


def _reads(trees):
    """Member name -> (file, line, constructed class) of every read of it.

    A read is an attribute access ``.name`` or a keyword argument
    ``name=``; a keyword argument of a call to a class, by its name or as
    ``cls`` inside its own body, sets that class's field, so it records the
    class and is not a read of it.  Reads are matched by name alone: the AST
    does not know the type of the object a member is read from.
    """
    reads: dict[str, list[tuple[str, int, str | None]]] = {}
    for file, tree in trees.items():
        own = _own_calls(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append((file, node.lineno, None))
            elif isinstance(node, ast.Call):
                callee = node.func.id if isinstance(node.func, ast.Name) else None
                callee = own.get(id(node), callee)
                for keyword in node.keywords:
                    if keyword.arg:
                        reads.setdefault(keyword.arg, []).append(
                            (file, keyword.value.lineno, callee)
                        )
    return reads


def _members(cls):
    """(name, definition line) of the public fields and non-dunder methods."""
    for item in cls.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            name = item.target.id
        elif isinstance(item, ast.FunctionDef):
            name = item.name
        else:
            continue
        if not name.startswith("_"):
            yield name, item.lineno


def _unread_members():
    """``Class.member`` for public members with no read outside their own
    definition line and their class's ``__post_init__``."""
    trees = _trees()
    reads = _reads(trees)
    unread = set()
    for file, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            validation = set()
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__post_init__":
                    validation = set(range(item.lineno, item.end_lineno + 1))
            for name, line in _members(cls):
                if not any(
                    callee != cls.name
                    and not (where == file and (at == line or at in validation))
                    for where, at, callee in reads.get(name, [])
                ):
                    unread.add(f"{cls.name}.{name}")
    return unread


def test_every_public_member_is_read():
    unread = _unread_members()
    assert not unread - set(MEMBER_ALLOWLIST), (
        f"public members only their own tests read: {sorted(unread - set(MEMBER_ALLOWLIST))}"
    )
    # an allowlisted member that the package starts to read leaves the list
    assert set(MEMBER_ALLOWLIST) <= unread


def _uncalled_model_methods():
    """Public methods of ``grid._GridModel`` that the package reaches only
    inside their own definition.  A method is reached by a read of it
    (``_reads``): a call, or a bound method passed on (``map(self.name,
    ...)``)."""
    trees = _trees()
    reads = _reads(trees)
    model = next(
        node
        for node in trees["grid.py"].body
        if isinstance(node, ast.ClassDef) and node.name == "_GridModel"
    )
    uncalled = set()
    for item in model.body:
        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
            own = range(item.lineno, item.end_lineno + 1)
            if all(
                file == "grid.py" and line in own
                for file, line, _ in reads.get(item.name, [])
            ):
                uncalled.add(item.name)
    return uncalled


def test_every_model_method_is_called():
    uncalled = _uncalled_model_methods()
    assert not uncalled - set(MODEL_METHOD_ALLOWLIST), (
        "model methods only their own tests call: "
        f"{sorted(uncalled - set(MODEL_METHOD_ALLOWLIST))}"
    )
    # an allowlisted method that the package starts to call leaves the list
    assert set(MODEL_METHOD_ALLOWLIST) <= uncalled


def _unreached_private():
    """``file:name`` of every module-level private function or class, and
    ``_GridModel.name`` of every private non-dunder model method, with no
    use in the package outside its own definition.  A use is a name or an
    attribute read of it (``_reads``); an import alone is none."""
    trees = _trees()
    reads = _reads(trees)
    names: dict[str, list[tuple[str, int]]] = {}
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append((file, node.lineno))
    unreached = set()
    for file, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if node.name.startswith("_") and not node.name.startswith("__"):
                uses = names.get(node.name, []) + [
                    (where, at) for where, at, _ in reads.get(node.name, [])
                ]
                if all(where == file and at in own for where, at in uses):
                    unreached.add(f"{file}:{node.name}")
            if file == "grid.py" and node.name == "_GridModel":
                for item in node.body:
                    name = getattr(item, "name", "")
                    if not (
                        isinstance(item, ast.FunctionDef)
                        and name.startswith("_")
                        and not name.startswith("__")
                    ):
                        continue
                    span = range(item.lineno, item.end_lineno + 1)
                    if all(
                        where == file and at in span
                        for where, at, _ in reads.get(name, [])
                    ):
                        unreached.add(f"_GridModel.{name}")
    return unreached


def test_every_private_name_is_reached():
    unreached = _unreached_private()
    assert not unreached, f"private names the package never reaches: {sorted(unreached)}"
