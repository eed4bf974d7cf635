"""Structural checks on the package source: module boundaries and imports."""

import ast
import os
import pathlib
import subprocess
import sys

import contactshape

PACKAGE_DIR = pathlib.Path(contactshape.__file__).parent


def private_reach_ins(package_dir=PACKAGE_DIR):
    """``file:line name`` for every use of another module's private name.

    That is an attribute access ``<sibling module>._name`` or an import
    ``from .<sibling module> import _name``.
    """
    modules = {p.stem for p in package_dir.glob("*.py")}
    found = []
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = []
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                names = ["%s.%s" % (node.value.id, node.attr)]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in modules:
                names = ["%s.%s" % (node.module, a.name) for a in node.names]
            for name in names:
                if name.rsplit(".", 1)[1].startswith("_"):
                    found.append("%s:%d %s" % (path.name, node.lineno, name))
    return found


def test_no_module_reaches_into_another_modules_private_names():
    assert private_reach_ins() == []


def imports_of(modules, package_dir=PACKAGE_DIR):
    """``file:line module`` for every import of one of ``modules``."""
    found = []
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".") + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                parts = [p for a in node.names for p in a.name.split(".")]
            else:
                continue
            for name in sorted(set(modules) & set(parts)):
                found.append("%s:%d %s" % (path.name, node.lineno, name))
    return found


def test_only_assembly_knows_the_elastic_models():
    """Which model runs, and in which unit its kernel works, is assembly's
    decision; the package root re-exports the kernels."""
    allowed = ("assembly.py", "__init__.py")
    found = imports_of({"boussinesq", "love"})
    assert [f for f in found if f.split(":")[0] not in allowed] == []


def test_import_leaves_scipy_unloaded():
    """scipy only serves the quadrature oracle, so importing the package
    or its command line front end must not load it."""
    code = (
        "import sys, contactshape, contactshape.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent)),
    )
    assert out.stdout.strip() == "[]"


def _reads(call) -> bool:
    """Whether an ``open`` call opens for reading: no mode, a mode that
    contains "r", or a mode that is not a literal."""
    mode = call.args[1] if len(call.args) > 1 else None
    mode = next((k.value for k in call.keywords if k.arg == "mode"), mode)
    return mode is None or not isinstance(mode, ast.Constant) or "r" in str(mode.value)


def reading_opens(package_dir=PACKAGE_DIR):
    """``module.function`` for every ``open`` call that reads a file, named
    by its innermost enclosing function (``module.<module>`` outside one)."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, "%s.%s" % (where.split(".")[0], child.name))
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", None) or getattr(child.func, "attr", None)
                if name == "open" and _reads(child):
                    found.append(where)
            visit(child, where)

    for path in sorted(package_dir.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), "%s.<module>" % path.stem)
    return found


def test_every_input_file_is_read_by_one_of_the_readers():
    """Text inputs go through ``grid.read_records`` (one line, header and
    error policy for every format); the cache reader and the JSON params
    file are the only other files opened for reading."""
    assert set(reading_opens()) == {"grid.read_records", "assembly._read_entry", "cli._load_params"}


def top_level_names(path):
    """Names a module defines at its top level: functions, classes and
    assignment targets."""
    names = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_solvers_defines_no_fme_name():
    """Fourier-Motzkin elimination lives in ``fme``; ``solvers`` is NNLS only."""
    solvers = top_level_names(PACKAGE_DIR / "solvers.py")
    assert solvers & top_level_names(PACKAGE_DIR / "fme.py") == set()
    assert [n for n in solvers if "fme" in n.lower() or "inequalit" in n.lower()] == []


def test_only_fme_uses_rational_arithmetic():
    """FME's one arithmetic, exact rationals, stays in its one module."""
    found = imports_of({"fractions"})
    assert found and [f for f in found if not f.startswith("fme.py:")] == []


def test_only_solvers_computes_in_single_precision():
    """Every result is float64; the NNLS search is the one float32 path,
    and its certifying step is float64 (``solvers``)."""
    found = [p.name for p in sorted(PACKAGE_DIR.glob("*.py")) if "float32" in p.read_text()]
    assert found == ["solvers.py"]


def test_one_membership_check():
    """``errors.check_choice`` words every "must be one of" error; the
    model check raises its own category, ``unsupported-model``."""
    found = [
        "%s:%d" % (p.name, i)
        for p in sorted(PACKAGE_DIR.glob("*.py"))
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if "must be one of" in line
    ]
    assert [f.split(":")[0] for f in found] == ["assembly.py", "errors.py"], found
