"""Layout rules for the modules under src/flowbox.

A module may import from another flowbox module only names without a
leading underscore; a helper another module needs is made public first.
Only kernel keeps retry-ladder bookkeeping and binds the contract
tolerances (the module-level *_TOL names), only decomposition calls validate
(everything else reads a scene's cached validation report), every
definition is used in src, and every report parameter is passed by some
caller in src or bench.
"""

import ast
from pathlib import Path

import flowbox

PACKAGE = Path(flowbox.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "bench"


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


def tolerance_bindings(path: Path) -> list:
    """(line, name) of every module-level binding of a name ending in _TOL
    in the file.  An import binds nothing here: reading kernel's name is
    how the other modules use a tolerance."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and name.id.endswith("_TOL"):
                    found.append((node.lineno, name.id))
    return found


def test_only_kernel_binds_tolerances():
    offenders = {path.name: tolerance_bindings(path)
                 for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "kernel.py"}
    assert {name: rows for name, rows in offenders.items() if rows} == {}


def test_rule_catches_tolerance_bindings(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .kernel import SOLVER_TOL, COMPARISON_TOL as C\n"
                     "FACE_TOL = 1e-6\n"
                     "POST_TOL: float = 1e-9\n"
                     "LOW, HIGH_TOL = 0, 1\n"
                     "SOLVER_TOL *= 2\n"
                     "TOLERANCE = 1\n"
                     "def f():\n"
                     "    LOCAL_TOL = 3\n")
    assert tolerance_bindings(probe) == [
        (2, "FACE_TOL"),
        (3, "POST_TOL"),
        (4, "HIGH_TOL"),
        (5, "SOLVER_TOL"),
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


def unpassed_reports(defining, calling) -> list:
    """(file, name) of every module-level function or method in the
    defining files that takes a report parameter no call in the calling
    files passes: neither report= (or a ** splat) nor a positional argument
    at report's place.  Calls match by name, as unused_definitions does.
    Nested functions are callbacks, called through whatever parameter they
    are handed to, so they are not checked.
    """
    wanted = {}
    for path in defining:
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [tree] + [node for node in tree.body
                           if isinstance(node, ast.ClassDef)]
        for scope in scopes:
            for node in scope.body:
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                if scope is not tree:
                    positional = positional[1:]   # self or cls
                if "report" in positional:
                    wanted[(path.name, node.name)] = positional.index("report")
                elif "report" in [a.arg for a in args.kwonlyargs]:
                    wanted[(path.name, node.name)] = None
    passed = set()
    for path in calling:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = (node.func.id if isinstance(node.func, ast.Name)
                    else getattr(node.func, "attr", None))
            by_keyword = any(k.arg in ("report", None) for k in node.keywords)
            for (file, function), place in wanted.items():
                if function == name and (by_keyword or (
                        place is not None and len(node.args) > place)):
                    passed.add((file, function))
    return sorted(set(wanted) - passed)


def test_every_report_parameter_is_passed_in_src_or_bench():
    # a report branch only tests read is either read by a pipeline or removed
    src = sorted(PACKAGE.glob("*.py"))
    assert unpassed_reports(src, src + sorted(BENCH.glob("*.py"))) == []


def test_rule_catches_unpassed_reports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def by_keyword(x, report=None): pass\n"
                     "def by_place(x, report=None): pass\n"
                     "def by_splat(x, *, report=None): pass\n"
                     "def never(x, report=None): pass\n"
                     "def too_few(x, y, report=None): pass\n"
                     "class Box:\n"
                     "    def method(self, report): pass\n"
                     "    def unread(self, report): pass\n"
                     "def outer():\n"
                     "    def callback(w, report): pass\n"
                     "    return callback\n"
                     "by_keyword(1, report={})\n"
                     "by_place(1, {})\n"
                     "by_splat(1, **{})\n"
                     "never(1)\n"
                     "too_few(1, {})\n"
                     "Box().method({})\n"
                     "Box().unread()\n")
    assert unpassed_reports([probe], [probe]) == [
        ("probe.py", "never"),
        ("probe.py", "too_few"),
        ("probe.py", "unread"),
    ]
