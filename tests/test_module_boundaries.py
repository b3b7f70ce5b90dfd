"""Layout rules for the modules under src/flowbox.

A module may import from another flowbox module only names without a
leading underscore; a helper another module needs is made public first.
Only kernel keeps retry-ladder bookkeeping, only decomposition calls
validate (everything else reads a scene's cached validation report), and
every definition is used in src.
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


def ladder_bookkeeping(path: Path) -> list:
    """(line, name) of every read of MAX_RETRIES and every write of an
    attempt_distances key in the file: the bookkeeping of a retry ladder,
    which kernel.halving_ladder alone does."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def is_key(node):
        return (isinstance(node, ast.Constant)
                and node.value == "attempt_distances")

    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute)
                else node.name if isinstance(node, ast.alias) else None)
        if name == "MAX_RETRIES":
            found.append((node.lineno, "MAX_RETRIES"))
        elif isinstance(node, ast.Dict):
            found += [(k.lineno, "attempt_distances")
                      for k in node.keys if k is not None and is_key(k)]
        elif (isinstance(node, ast.Subscript)
              and isinstance(node.ctx, ast.Store) and is_key(node.slice)):
            found.append((node.lineno, "attempt_distances"))
        elif (isinstance(node, ast.keyword)
              and node.arg == "attempt_distances"):
            found.append((node.lineno, "attempt_distances"))
    return sorted(found)


def test_only_kernel_keeps_retry_ladders():
    offenders = {path.name: ladder_bookkeeping(path)
                 for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "kernel.py"}
    assert {name: rows for name, rows in offenders.items() if rows} == {}


def test_rule_catches_retry_ladders(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .kernel import MAX_RETRIES\n"
                     "from . import kernel\n"
                     "for attempt in range(kernel.MAX_RETRIES + 1):\n"
                     "    report.update({'attempt_distances': []})\n"
                     "report['attempt_distances'] = []\n"
                     "report.update(attempt_distances=[])\n"
                     "seen = report['attempt_distances']\n")
    assert ladder_bookkeeping(probe) == [
        (1, "MAX_RETRIES"),
        (3, "MAX_RETRIES"),
        (4, "attempt_distances"),
        (5, "attempt_distances"),
        (6, "attempt_distances"),
    ]


def validate_calls(path: Path) -> list:
    """Lines of every call of a function named validate in the file, bare
    or as an attribute: a verdict on a scene that its cached validation
    report already holds."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name)
             else getattr(node.func, "attr", None)) == "validate")


def test_only_decomposition_calls_validate():
    offenders = {path.name: validate_calls(path)
                 for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "decomposition.py"}
    assert {name: rows for name, rows in offenders.items() if rows} == {}


def test_rule_catches_validate_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .decomposition import validate\n"
                     "from . import decomposition\n"
                     "report = validate(scene)\n"
                     "ok = decomposition.validate(scene)['valid']\n"
                     "ok = scene.validation['valid']\n"
                     "check = validate\n"
                     "parser.add_parser('validate')\n")
    assert validate_calls(probe) == [3, 4]


# argparse calls this override itself; nothing in flowbox names it
USED_BY_FRAMEWORK = {("_Parser", "error")}


def unused_definitions(paths) -> list:
    """(file, class, name) of every function, method or class defined in the
    files whose name the files never use: no import, attribute read or bare
    name mentions it.  Dunder methods and USED_BY_FRAMEWORK are exempt.

    The check matches by name only, so a definition counts as used when
    anything of the same name is used: it cannot see an unused serializer
    that shares a name like to_json with one that is called.
    """
    defined, used = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        owners = [(tree, None)]
        while owners:
            node, owner = owners.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    defined.append((path.name, owner, child.name))
                    if isinstance(child, ast.ClassDef):
                        owners.append((child, child.name))
                        continue
                owners.append((child, owner))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.split(".")[-1])
    return sorted(
        (row for row in defined
         if row[2] not in used and (row[1], row[2]) not in USED_BY_FRAMEWORK
         and not (row[2].startswith("__") and row[2].endswith("__"))),
        key=lambda row: (row[0], row[1] or "", row[2]))


def test_every_definition_is_used_in_src():
    # code only tests call is either used by a pipeline or removed
    assert unused_definitions(sorted(PACKAGE.glob("*.py"))) == []


def test_rule_catches_unused_definitions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .kernel import imported\n"
                     "class Box:\n"
                     "    def __repr__(self): return ''\n"
                     "    def read(self): return self.size\n"
                     "    def size(self): return 0\n"
                     "    def lonely(self): return helper()\n"
                     "def helper(): return Box().read, _Parser\n"
                     "def imported(): pass\n"
                     "def orphan():\n"
                     "    def inner(): pass\n"
                     "class _Parser:\n"
                     "    def error(self, message): pass\n")
    assert unused_definitions([probe]) == [
        ("probe.py", None, "inner"),
        ("probe.py", None, "orphan"),
        ("probe.py", "Box", "lonely"),
    ]
