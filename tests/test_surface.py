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
