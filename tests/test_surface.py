"""The package keeps only what a run, the CLI or the README's library
example reaches: code that only tests call lives under tests/."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fedtruth"


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


def attributes_set_by_method(path, class_name):
    """method name -> the `self.` attributes it assigns or deletes, in
    the class `class_name` of the module at `path`."""
    cls = next(node for node in parse(path).body
               if isinstance(node, ast.ClassDef) and node.name == class_name)
    found = {}
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef):
            continue
        names = found.setdefault(method.name, set())
        for node in ast.walk(method):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, (ast.Store, ast.Del)) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                names.add(node.attr)
    return found


def test_a_run_changes_only_its_global_model_after_setup():
    # a round must depend only on the setup (one read-only RunData, built
    # in __init__) and the current global model, so no other method may
    # set anything else
    found = attributes_set_by_method(PACKAGE / "simulator.py", "_Experiment")
    assert found.pop("__init__") == {"cfg", "data", "client_streams",
                                     "global_model"}
    assert {method: names - {"global_model"}
            for method, names in found.items()
            if names - {"global_model"}} == {}
