"""The package keeps only what a run, the CLI or the README's library
example reaches: code that only tests call lives under tests/. The tests'
references live in tests/oracles.py and call none of the code they check,
and no test module imports another."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fedtruth"
TESTS = ROOT / "tests"


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


# members that code outside the package calls on a package object: numpy's
# PCG64 asks its seed sequence for generate_state
CALLED_FROM_OUTSIDE = {"StateWords.generate_state"}


def package_names():
    """The public top-level definitions (name -> module), the public
    methods and properties of their classes ("Class.member" -> member),
    and every name read anywhere in the package's modules, by name or as
    an attribute; the __init__ re-exports are not readers."""
    defined, members, read = {}, {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = parse(path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                defined[node.name] = path.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) \
                            and not item.name.startswith("_"):
                        members[f"{node.name}.{item.name}"] = item.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return defined, members, read


def test_every_public_definition_is_read_inside_the_package():
    defined, _, read = package_names()
    unread = sorted(f"{module}: {name}" for name, module in defined.items()
                    if name not in read)
    assert unread == []


def test_every_public_member_is_read_inside_the_package():
    _, members, read = package_names()
    unread = sorted(member for member, name in members.items()
                    if name not in read and member not in CALLED_FROM_OUTSIDE)
    assert unread == []


def test_every_export_is_named_in_the_readme_library_section():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    exports = [alias.name for node in parse(PACKAGE / "__init__.py").body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert exports
    undocumented = [name for name in exports
                    if not re.search(rf"\b{name}\b", section)]
    assert undocumented == []


def round_state_writes(path):
    """'function: global' or 'function: nonlocal' for each such statement
    in a function of the module at `path`, and 'Class.method: self.name'
    for each `self.` attribute a method other than __init__ or
    __post_init__ assigns or deletes."""
    found = []
    for node in ast.walk(parse(path)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{node.name}: {type(n).__name__.lower()}"
                      for n in ast.walk(node)
                      if isinstance(n, (ast.Global, ast.Nonlocal))]
        if not isinstance(node, ast.ClassDef):
            continue
        for method in node.body:
            if not isinstance(method, ast.FunctionDef) \
                    or method.name in ("__init__", "__post_init__"):
                continue
            found += [f"{node.name}.{method.name}: self.{n.attr}"
                      for n in ast.walk(method)
                      if isinstance(n, ast.Attribute)
                      and isinstance(n.ctx, (ast.Store, ast.Del))
                      and isinstance(n.value, ast.Name)
                      and n.value.id == "self"]
    return found


def test_a_round_keeps_no_state_between_calls():
    # a round must depend only on the setup (one read-only RunData) and
    # the global model it is given, so nothing in the simulator may
    # carry a value from one call to the next
    assert round_state_writes(PACKAGE / "simulator.py") == []


# what an oracle may take from the package: the builders of its inputs and
# the value types it is handed
ORACLE_MAY_IMPORT = {"stream", "synth_blobs", "load_idx", "Dataset",
                     "DataSource", "DistanceKind", "CoefficientFunction",
                     "ModelKind"}


def call_root(node):
    """The name an attribute chain such as np.linalg.norm starts from."""
    while isinstance(node, (ast.Attribute, ast.Call, ast.Subscript)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return node.id if isinstance(node, ast.Name) else None


def oracle_package_uses(tree):
    """Each package name that the module `tree` imports and
    ORACLE_MAY_IMPORT does not allow, and each call of a function or
    method that the package defines, other than through numpy or math."""
    defined = {node.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(parse(path))
               if isinstance(node, ast.FunctionDef)
               and not node.name.startswith("__")}
    own = {node.name for node in ast.walk(tree)
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    package = defined - own - ORACLE_MAY_IMPORT
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] == "fedtruth"]
        elif isinstance(node, ast.ImportFrom) \
                and (node.module or "").split(".")[0] == "fedtruth":
            found += [a.name for a in node.names
                      if a.name not in ORACLE_MAY_IMPORT]
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in package:
                found.append(func.id)
            elif isinstance(func, ast.Attribute) and func.attr in package \
                    and call_root(func) not in ("np", "math"):
                found.append(func.attr)
    return found


def test_oracles_call_no_code_they_check():
    assert oracle_package_uses(parse(TESTS / "oracles.py")) == []


def imported_test_modules(tree):
    """The test_* modules that the module `tree` imports."""
    names = [a.name for node in ast.walk(tree)
             if isinstance(node, ast.Import) for a in node.names]
    names += [node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module]
    return [name for name in names if name.split(".")[0].startswith("test_")]


def test_no_test_module_imports_another():
    # shared code lives in helpers.py and oracles.py
    found = [f"{path.name}: {name}" for path in sorted(TESTS.glob("*.py"))
             for name in imported_test_modules(parse(path))]
    assert found == []


def test_the_import_guards_see_a_seeded_violation():
    seeded = ast.parse("from fedtruth.aggregators import flame_survivors\n"
                       "p = g.performance_shares(np.linalg.norm(X))")
    assert oracle_package_uses(seeded) == ["flame_survivors",
                                           "performance_shares"]
    assert imported_test_modules(ast.parse("from test_cli import MINIMAL")) \
        == ["test_cli"]
