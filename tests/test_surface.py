"""Every public function, class and method in the package has a caller
outside the tests, and every defaulted parameter is passed by one.

A name counts as referenced when a program file under src/, demos/, tools/
or perfbench/ uses it as a name, an attribute, an import or a string (the
benchmark tracer patches methods by name). A method counts only through an
attribute or a string: a local variable that shares its name is not a use.
The package's re-exports in ``__init__.py`` do not count.

A defaulted parameter of a public function, method or constructor, and a
defaulted dataclass field, counts as passed when a program call gives it by
keyword or by position, spreads ``*``/``**`` arguments, or sets it through
``dataclasses.replace``. Calls resolve by bare name; ``cls(...)`` inside a
classmethod is a call of its class.

An instance attribute that a package class assigns (``self.x = ...``)
counts as read when a program file loads it as an attribute (of any object)
or names it in a string. A store, including ``self.x += ...``, is not a read.
"""

import ast
import collections
import os
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "transducerkit")
PROGRAM_DIRS = ("src", "demos", "tools", "perfbench")

# name -> why only tests call it
TEST_ONLY = {
    "grad_check": "the finite-difference contract every hand-written backward is held to",
}

# "module.name(parameter=)" -> why only tests pass it
TEST_ONLY_PARAMS = {
    "tensor.grad_check(step=)": "the finite-difference contract: tests choose the step per check",
    "cli.main(argv=)": "the console-script entry point reads sys.argv; tests drive it with a list",
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


def package_modules():
    """(module name, tree) of every package file."""
    return [(os.path.relpath(path, PACKAGE)[:-3], parse(path)) for path in python_files(["src"])]


def program_trees():
    init = os.path.join(PACKAGE, "__init__.py")
    return [parse(path) for path in python_files(PROGRAM_DIRS) if path != init]


def public_classes(tree):
    return [n for n in tree.body if isinstance(n, ast.ClassDef) and not n.name.startswith("_")]


def decorator_names(node):
    return {getattr(d, "id", getattr(d, "attr", None)) for d in node.decorator_list}


def public_definitions(modules):
    """(qualified name, bare name, is a method) of every public def and
    class, and of every public method of a public class."""
    found = []
    for module, tree in modules:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found.append((f"{module}.{node.name}", node.name, False))
        for cls in public_classes(tree):
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found.append((f"{module}.{cls.name}.{item.name}", item.name, True))
    return found


def referenced_names(trees):
    """(every referenced name, the names referenced as attributes or strings)."""
    names, members = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                members.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                members.add(node.value)
    return names | members, members


def unreferenced(modules, trees):
    names, members = referenced_names(trees)
    return sorted(
        qual
        for qual, name, is_method in public_definitions(modules)
        if name not in (members if is_method else names)
    )


Defaulted = collections.namedtuple("Defaulted", "label call param position is_field")


def defaulted_args(label, call, func, skip_first):
    """Defaulted parameters of ``func``, called as ``call``; keyword-only
    ones have position None."""
    args = func.args
    positional = (args.posonlyargs + args.args)[1 if skip_first else 0 :]
    first_default = len(positional) - len(args.defaults)
    found = [
        Defaulted(f"{label}({a.arg}=)", call, a.arg, i, False)
        for i, a in enumerate(positional)
        if i >= first_default
    ]
    found += [
        Defaulted(f"{label}({a.arg}=)", call, a.arg, None, False)
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return found


def defaulted_parameters(modules):
    found = []
    for module, tree in modules:
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found += defaulted_args(f"{module}.{node.name}", node.name, node, skip_first=False)
        for cls in public_classes(tree):
            label = f"{module}.{cls.name}"
            if "dataclass" in decorator_names(cls):
                fields = [s for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
                found += [
                    Defaulted(f"{label}({f.target.id}=)", cls.name, f.target.id, i, True)
                    for i, f in enumerate(fields)
                    if f.value is not None
                ]
            for item in cls.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = "staticmethod" in decorator_names(item)
                if item.name == "__init__":
                    found += defaulted_args(label, cls.name, item, skip_first=True)
                elif not item.name.startswith("_"):
                    found += defaulted_args(f"{label}.{item.name}", item.name, item, skip_first=not static)
    return found


def call_name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def program_calls(trees):
    """({call name: [(positional count, keywords, spreads)]}, keywords given
    to ``replace``)."""
    calls = collections.defaultdict(list)
    replaced = set()
    for tree in trees:
        class_calls = {}  # id of a cls(...) call inside a classmethod -> class name
        for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and "classmethod" in decorator_names(item) and item.args.args:
                    first = item.args.args[0].arg
                    for node in ast.walk(item):
                        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == first:
                            class_calls[id(node)] = cls.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = class_calls.get(id(node)) or call_name(node.func)
            positional = [a for a in node.args if not isinstance(a, ast.Starred)]
            spreads = len(positional) < len(node.args) or any(k.arg is None for k in node.keywords)
            keywords = {k.arg for k in node.keywords if k.arg is not None}
            calls[name].append((len(positional), keywords, spreads))
            if name == "replace":
                replaced |= keywords
    return calls, replaced


def unpassed(modules, trees):
    calls, replaced = program_calls(trees)

    def passed(d):
        if d.is_field and d.param in replaced:
            return True
        return any(
            spreads or d.param in keywords or (d.position is not None and d.position < count)
            for count, keywords, spreads in calls.get(d.call, ())
        )

    return sorted(d.label for d in defaulted_parameters(modules) if not passed(d))


def assigned_attributes(modules):
    """(qualified name, attribute) of every ``self.<attribute>`` that a
    method of a package class stores to, ``self`` being its first parameter."""
    found = set()
    for module, tree in modules:
        for cls in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
            for item in cls.body:
                if not isinstance(item, ast.FunctionDef) or not item.args.args:
                    continue
                me = item.args.args[0].arg
                for node in ast.walk(item):
                    if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                            and isinstance(node.value, ast.Name) and node.value.id == me):
                        found.add((f"{module}.{cls.name}.{node.attr}", node.attr))
    return found


def read_attributes(trees):
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return read


def unread(modules, trees):
    read = read_attributes(trees)
    return sorted({qual for qual, attr in assigned_attributes(modules) if attr not in read})


def test_every_public_name_has_a_program_caller():
    unused = [q for q in unreferenced(package_modules(), program_trees()) if q.rsplit(".", 1)[-1] not in TEST_ONLY]
    assert unused == [], "public names only tests (or nothing) use; delete them or allowlist with a reason"


def test_every_defaulted_parameter_is_passed_by_a_program():
    unused = [label for label in unpassed(package_modules(), program_trees()) if label not in TEST_ONLY_PARAMS]
    assert unused == [], "parameters only tests (or nothing) pass; make them constants or allowlist with a reason"


def test_every_assigned_attribute_is_read_by_a_program():
    unused = unread(package_modules(), program_trees())
    assert unused == [], "attributes only tests (or nothing) read; stop storing them"


def test_allowlist_is_current():
    modules, trees = package_modules(), program_trees()
    names = {q.rsplit(".", 1)[-1] for q in unreferenced(modules, trees)}
    assert set(TEST_ONLY) <= names
    assert set(TEST_ONLY_PARAMS) <= set(unpassed(modules, trees))


def in_memory(source):
    return ast.parse(textwrap.dedent(source))


GUARDED_SOURCE = """
    from dataclasses import dataclass, replace

    def scale(x, factor=2.0, offset=0.0):
        return x * factor + offset

    @dataclass
    class Spec:
        width: int
        depth: int = 1

    class Table:
        def __init__(self, rows, sep="\\t"):
            self.rows, self.sep = rows, sep

        @classmethod
        def parse(cls, text, sep="\\t"):
            return cls(text.split("\\n"), sep)

        def names(self):
            return self.rows
    """
GUARDED = in_memory(GUARDED_SOURCE)


class TestGuard:
    def test_test_only_keyword_flagged(self):
        caller = in_memory("scale(3.0, 4.0)\nreplace(Spec(2), depth=3)\nTable.parse('a', sep=',').names()")
        assert unpassed([("m", GUARDED)], [GUARDED, caller]) == ["m.scale(offset=)"]
        no_replace = in_memory("scale(3.0, 4.0, 1.0)\nSpec(2)\nTable.parse('a', ',')")
        assert unpassed([("m", GUARDED)], [GUARDED, no_replace]) == ["m.Spec(depth=)"]

    def test_positional_replace_and_cls_calls_count(self):
        caller = in_memory("scale(3.0, 4.0, 1.0)\nreplace(Spec(2), depth=3)\nTable.parse('a', ',')")
        assert unpassed([("m", GUARDED)], [GUARDED, caller]) == []
        # without the classmethod's cls(...) call, Table(sep=) has no caller
        no_cls = in_memory(GUARDED_SOURCE.replace("return cls(", "return make("))
        assert unpassed([("m", no_cls)], [no_cls, caller]) == ["m.Table(sep=)"]

    def test_spread_arguments_count(self):
        caller = in_memory("scale(*args)\nscale(1.0, **kw)\nreplace(Spec(2), depth=3)\nTable.parse('a', ',')")
        assert unpassed([("m", GUARDED)], [GUARDED, caller]) == []

    def test_method_needs_attribute_or_string(self):
        local = in_memory("names = ['a']\nprint(names, scale, Spec, Table.parse)")
        assert unreferenced([("m", GUARDED)], [local]) == ["m.Table.names"]
        by_string = in_memory("setattr(Table, 'names', None)\nprint(scale, Spec, Table.parse)")
        assert unreferenced([("m", GUARDED)], [by_string]) == []

    def test_attribute_needs_a_load_or_string(self):
        store_only = in_memory("t = Table(['a'])\nt.sep = ','\nt.rows += ['b']")
        assert unread([("m", GUARDED)], [store_only]) == ["m.Table.rows", "m.Table.sep"]
        loads = in_memory("t = Table(['a'])\nprint(t.rows, getattr(t, 'sep'))")
        assert unread([("m", GUARDED)], [loads]) == []
