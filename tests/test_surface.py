"""Every public function, class and method in the package has a caller
outside the tests.

A name counts as referenced when a program file under src/, demos/, tools/
or perfbench/ uses it as a name, an attribute, an import or a string (the
benchmark tracer patches methods by name). The package's re-exports in
``__init__.py`` do not count.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "transducerkit")
PROGRAM_DIRS = ("src", "demos", "tools", "perfbench")

# name -> why only tests call it
TEST_ONLY = {
    "grad_check": "the finite-difference contract every hand-written backward is held to",
}


def python_files(dirs):
    for d in dirs:
        for base, _, files in os.walk(os.path.join(ROOT, d)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(base, name)


def parse(path):
    with open(path) as f:
        return ast.parse(f.read(), path)


def public_definitions():
    """(qualified name, bare name) of every public def and class, and of
    every public method of a public class."""
    found = []
    for path in python_files(["src"]):
        module = os.path.relpath(path, PACKAGE)[:-3]
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found.append((f"{module}.{node.name}.{item.name}", item.name))
    return found


def referenced_names():
    names = set()
    for path in python_files(PROGRAM_DIRS):
        if path == os.path.join(PACKAGE, "__init__.py"):
            continue
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_public_name_has_a_program_caller():
    used = referenced_names()
    unused = sorted(qual for qual, name in public_definitions() if name not in used and name not in TEST_ONLY)
    assert unused == [], "public names only tests (or nothing) use; delete them or allowlist with a reason"


def test_allowlist_is_current():
    used = referenced_names()
    defined = {name for _, name in public_definitions()}
    assert {name for name in TEST_ONLY if name in defined and name not in used} == set(TEST_ONLY)
