"""The package's public surface: `ontoalign.__all__` against its imports."""

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
