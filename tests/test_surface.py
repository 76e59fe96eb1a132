"""The package's public surface is no larger than its callers.

Every module-level public function and class in ``src/cornerforge`` must be
referenced, by name or as an attribute, somewhere in the package or in the
benchmark code that drives it (``benchmark/workloads.py`` and
``benchmark/fixtures/make_fixtures.py``). Import lines alone are not
references, and neither are tracer target strings in
``benchmark/layers.py``, which skip names that no longer exist. A name that
only tests reach belongs in ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cornerforge"
CALLERS = [ROOT / "benchmark" / "workloads.py",
           ROOT / "benchmark" / "fixtures" / "make_fixtures.py"]


def public_definitions():
    """(module file name, name) of each module-level public function and
    class of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path.name, node.name


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
    unused = [f"{module}:{name}" for module, name in public_definitions()
              if name not in used]
    assert not unused, f"public names that nothing outside tests calls: {unused}"
