"""The package's surface: `ontoalign.__all__` against its imports, every
private name against its users, and every import against its reads."""

import ast
from pathlib import Path

import ontoalign


def test_all_resolves_is_unique_and_lists_every_import():
    exported = ontoalign.__all__
    assert len(exported) == len(set(exported))
    for name in exported:
        assert hasattr(ontoalign, name), name
    tree = ast.parse(Path(ontoalign.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert public <= set(exported), sorted(public - set(exported))


def _private_definitions(tree: ast.Module):
    """The underscore-named module-level functions, classes and constants of
    a module, and the underscore-named methods of its classes; dunder names
    are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        yield name.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name


def _references(tree: ast.Module):
    """Every name a module reads, imports or reaches as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.asname or node.name


def test_no_private_name_is_orphaned():
    """Every private function, class, constant and method of the package is
    used somewhere in it, so none outlives its last caller."""
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(ontoalign.__file__).parent.glob("*.py"))
    ]
    used = {name for tree in trees for name in _references(tree)}
    defined = {
        name
        for tree in trees
        for name in _private_definitions(tree)
        if name.startswith("_") and not name.endswith("__") and name != "_"
    }
    orphans = sorted(defined - used)
    assert defined and not orphans, orphans


def test_no_module_imports_a_name_it_never_reads():
    """Every name a module of the package imports is read somewhere in it,
    so no import outlives its last use. `__future__` imports bind nothing,
    and the package's `__init__` reads its re-exports through `__all__`."""
    unused = []
    for path in sorted(Path(ontoalign.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
            for alias in node.names
        }
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
        }
        if path.name == "__init__.py":
            read |= set(ontoalign.__all__)
        unused += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert not unused, unused
