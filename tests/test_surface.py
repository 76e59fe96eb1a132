"""The package's public surface is no larger than its callers.

Every public function and class at module level in ``src/cornerforge``, and
every public method and property in the body of a public class there, must
be referenced, by name or as an attribute, somewhere in the package or in
the benchmark code that drives it (``benchmark/workloads.py`` and
``benchmark/fixtures/make_fixtures.py``). Import lines alone are not
references, and neither are tracer target strings in
``benchmark/layers.py``, which skip names that no longer exist. A name that
only tests reach belongs in ``tests/``. The scan goes by name alone, so a
member that shares its name with anything read elsewhere (``at``, say, which
``np.maximum.at`` reads) passes unchecked.

The same holds for parameters: every defaulted parameter of a public
function, or of a public method or constructor of a public class, must be
passed, by position or keyword, at some call in those files. Calls resolve
by name in the same way, so a function reached only through another
callable (``_usage_checked``, a pool's ``submit``) has no call of its own.

Nothing in the package keys state on object identity: no call of the
builtin ``id`` is left in it.

Suppression and ranking have one path: ``ranked_rows`` has exactly one
call site in the package, in ``FeatureDetector``, and only it and the
random baseline define ``all_keypoints``. Trees have one reader: outside
``trees``, only ``runtime.PlaneWalk`` and ``runtime.leaf_paths`` read a
compiled tree's ``children``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cornerforge"
CALLERS = [ROOT / "benchmark" / "workloads.py",
           ROOT / "benchmark" / "fixtures" / "make_fixtures.py"]


def public_definitions():
    """(module file name, qualified name, name) of each public function and
    class at module level, and of each public method or property in the
    body of such a class. Members of a private class (an argparse parser
    whose ``error`` argparse calls, say) are not public surface."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            yield path.name, node.name, node.name
            for d in node.body if isinstance(node, ast.ClassDef) else []:
                if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"):
                    yield path.name, f"{node.name}.{d.name}", d.name


def referenced_names(paths) -> set[str]:
    """Names read as a bare name or as an attribute anywhere in the files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_caller():
    used = referenced_names([*sorted(PACKAGE.glob("*.py")), *CALLERS])
    unused = [f"{module}:{qualified}"
              for module, qualified, name in public_definitions()
              if name not in used]
    assert not unused, f"public names that nothing outside tests calls: {unused}"


# Defaulted parameters that no caller outside tests passes, and why each stays.
UNPASSED_PARAMETERS = {
    "cli.py:main(argv)": "the test seam: tests pass an argument list, while "
                         "the console script and `python -m` pass none, so "
                         "argparse reads sys.argv",
}


def defaulted_parameters():
    """(module file name, qualified name, call names, position, parameter)
    for each defaulted parameter of a public function, or of a public method
    or ``__init__`` of a public class. The call names are the names a call
    reaches it by: a method's name, or for ``__init__`` the class and its
    subclasses in the package. The position counts the arguments a call
    passes before it (None for a keyword-only parameter)."""
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    classes = [node for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)]

    def subclasses(name):
        out = {name}
        for c in classes:
            if any(isinstance(b, ast.Name) and b.id == name for b in c.bases):
                out |= subclasses(c.name)
        return out

    def params(module, qualified, names, fn, bound):
        a = fn.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        for k, arg in enumerate(positional[first:], first):
            yield module, qualified, names, k - bound, arg.arg
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield module, qualified, names, None, arg.arg

    for module, tree in trees.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if isinstance(node, ast.FunctionDef):
                yield from params(module, node.name, {node.name}, node, 0)
                continue
            for d in node.body:
                if not isinstance(d, ast.FunctionDef):
                    continue
                decorators = {x.id for x in d.decorator_list
                              if isinstance(x, ast.Name)}
                if d.name == "__init__":
                    names = subclasses(node.name)
                elif not d.name.startswith("_") and "property" not in decorators:
                    names = {d.name}
                else:
                    continue
                bound = 0 if "staticmethod" in decorators else 1
                yield from params(module, f"{node.name}.{d.name}", names, d,
                                  bound)


def call_sites(paths):
    """(called name, positional count, keyword names) per call in the files.
    A call with ``*args`` or ``**kwargs`` passes every parameter: its keyword
    names are None."""
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                yield name, len(node.args), None
            else:
                yield name, len(node.args), {k.arg for k in node.keywords}


def test_every_defaulted_parameter_is_passed():
    calls = list(call_sites([*sorted(PACKAGE.glob("*.py")), *CALLERS]))

    def passed(names, position, param):
        return any(name in names and (
            keywords is None or param in keywords
            or (position is not None and count > position))
            for name, count, keywords in calls)

    unpassed = [f"{module}:{qualified}({param})"
                for module, qualified, names, position, param
                in defaulted_parameters() if not passed(names, position, param)]
    assert sorted(unpassed) == sorted(UNPASSED_PARAMETERS), (
        f"defaulted parameters that nothing outside tests passes: {unpassed}")


def test_no_identity_keys():
    """Nothing in the package calls the builtin ``id``: an object's id is
    reused once it is freed, so a cache keyed on it can return another
    object's entry."""
    calls = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id == "id"]
    assert not calls, f"calls of id(): {calls}"


def test_one_suppression_path():
    """Every scored detector supplies a score grid and inherits
    ``all_keypoints`` from ``FeatureDetector``, whose call of
    ``ranked_rows`` is the only one in the package, so all of them
    suppress and rank through it. Only the random baseline, which has no
    grid, ranks its own rows."""
    defining, calls = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef):
                defining += [top.name for d in top.body
                             if isinstance(d, ast.FunctionDef)
                             and d.name == "all_keypoints"]
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = (func.id if isinstance(func, ast.Name)
                            else func.attr if isinstance(func, ast.Attribute)
                            else None)
                    if name == "ranked_rows":
                        calls.append(f"{path.name}:{getattr(top, 'name', '')}")
    assert defining == ["FeatureDetector", "RandomDetector"], (
        f"classes defining all_keypoints: {defining}")
    assert calls == ["detectors.py:FeatureDetector"], (
        f"calls of ranked_rows: {calls}")


def test_one_tree_reader():
    """A compiled tree's ``children`` are read only where trees are built and
    transformed (``trees``), walked over state planes (``runtime.PlaneWalk``)
    and enumerated path by path (``runtime.leaf_paths``): no other code
    follows a branch, not even the all-similar chain."""
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if path.name != "trees.py" and any(
                    isinstance(node, ast.Attribute) and node.attr == "children"
                    for node in ast.walk(top)):
                readers.add(f"{path.name}:{getattr(top, 'name', top.lineno)}")
    assert readers <= {"runtime.py:PlaneWalk", "runtime.py:leaf_paths"}, (
        f"readers of a compiled tree's children: {sorted(readers)}")
