"""Layout rule: flowbox modules share only public names.

A module under src/flowbox may import from another flowbox module only
names without a leading underscore; a helper another module needs is made
public first.
"""

import ast
from pathlib import Path

import flowbox

PACKAGE = Path(flowbox.__file__).parent


def private_imports(path: Path) -> list:
    """(line, module, name) of every _-prefixed name the file imports from
    another flowbox module, including attributes read off an imported
    flowbox module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found, modules = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        top = (node.module or "").split(".")[0]
        if node.level == 0 and top != "flowbox":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append((node.lineno, node.module, alias.name))
            elif node.module in (None, "flowbox"):
                # `from . import kernel` binds a module
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append((node.lineno, node.value.id, node.attr))
    return found


def test_no_module_imports_private_names_from_another():
    offenders = {path.name: private_imports(path)
                 for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: rows for name, rows in offenders.items() if rows} == {}


def test_rule_catches_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .smoothing import grid_nodes, _face_chart\n"
                     "from flowbox.kernel import _min_dots\n"
                     "from . import kernel\n"
                     "kernel._min_dots\n"
                     "from numpy import _globals\n")
    assert private_imports(probe) == [
        (1, "smoothing", "_face_chart"),
        (2, "flowbox.kernel", "_min_dots"),
        (4, "kernel", "_min_dots"),
    ]
