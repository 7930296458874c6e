import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads (a stand-in for pyflakes F401)."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    found = [u for path in sorted((SRC / "fbt").glob("*.py")) for u in _unused_imports(path)]
    assert found == []


def test_unused_import_check_sees_one(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import math\nfrom os import path as p, sep\nprint(p, math.pi)\n")
    assert _unused_imports(probe) == ["probe.py:2: sep"]


def _unused_constants(paths) -> list[str]:
    """Module-level UPPER_CASE names assigned in one of the modules and read
    (as a name or an attribute) in none of them."""
    assigned, read = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned += [(path.name, node.lineno, n.id) for t in targets
                             for n in ast.walk(t) if isinstance(n, ast.Name) and n.id.isupper()]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{name}:{line}: {const}" for name, line, const in assigned if const not in read]


def test_no_unused_module_constants():
    assert _unused_constants(sorted((SRC / "fbt").glob("*.py"))) == []


def test_unused_constant_check_sees_one(tmp_path):
    # read in its own module, through another module's attribute, or not at
    # all; a lower-case name and a name read only in a function do not count
    (tmp_path / "a.py").write_text(
        "LIMIT = 3\nWIDTH: int = 4\nSPARE, _HIDDEN = 5, 6\nlower = 7\n"
        "def f():\n    LOCAL = 8\n    return LIMIT\n")
    (tmp_path / "b.py").write_text("import a\nprint(a.WIDTH)\n")
    found = _unused_constants(sorted(tmp_path.glob("*.py")))
    assert found == ["a.py:3: SPARE", "a.py:3: _HIDDEN"]


def _private_definitions(paths) -> tuple[list[tuple[str, int, str]], list[str]]:
    """The module-level `def _x` and `class _X` of the modules and the
    `def _x` methods of their module-level classes, and those that none of
    the modules references: by name, as an attribute or as an imported
    name."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined, used = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        methods = [m for node in tree.body if isinstance(node, ast.ClassDef)
                   for m in node.body if isinstance(m, funcs)]
        defined += [(path.name, node.lineno, node.name) for node in tree.body + methods
                    if isinstance(node, (*funcs, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return defined, [f"{name}:{line}: {d}" for name, line, d in defined if d not in used]


def test_no_unused_private_definitions():
    defined, unused = _private_definitions(sorted((SRC / "fbt").glob("*.py")))
    assert unused == []
    assert defined


def test_unused_private_definition_check_sees_one(tmp_path):
    # used by name, as a decorator, through an import or an attribute; a
    # nested, public or dunder definition does not count, and a method
    # counts as a module-level definition does
    (tmp_path / "a.py").write_text(
        "def _called(): pass\ndef _deco(f): return f\n@_deco\ndef _spare(): pass\n"
        "class _Gone: pass\ndef _imported(): pass\ndef _attr(): pass\n"
        "def public():\n    def _inner(): pass\n    return _called()\n"
        "class Box:\n    def _method(self): pass\n"
        "    def __init__(self): self._helper()\n    def _helper(self): pass\n")
    (tmp_path / "b.py").write_text("from a import _imported\nimport a\nprint(a._attr, _imported)\n")
    _, unused = _private_definitions(sorted(tmp_path.glob("*.py")))
    assert unused == ["a.py:4: _spare", "a.py:5: _Gone", "a.py:12: _method"]


def _shared_error_messages(paths) -> list[str]:
    """ValidationError / NumericalError messages raised from more than one
    module, a plain literal or an f-string's leading literal: a rule written
    twice, which should be one function in fbt.errors."""
    modules = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and isinstance(node.exc.func, ast.Name)
                    and node.exc.func.id in ("ValidationError", "NumericalError")
                    and node.exc.args):
                continue
            msg = node.exc.args[0]
            if isinstance(msg, ast.JoinedStr) and msg.values:
                msg = msg.values[0]
            if isinstance(msg, ast.Constant):
                modules.setdefault(msg.value, set()).add(path.name)
    return [f"{msg!r}: {', '.join(sorted(names))}"
            for msg, names in sorted(modules.items()) if len(names) > 1]


def test_no_error_message_raised_from_two_modules():
    assert _shared_error_messages(sorted((SRC / "fbt").glob("*.py"))) == []


def test_shared_error_message_check_sees_one(tmp_path):
    # an f-string counts by its leading literal; twice in one module, an
    # f-string that opens on a value or another exception type do not count
    (tmp_path / "a.py").write_text(
        "def f(x):\n    if x:\n        raise ValidationError('x must be 1')\n"
        "    raise ValidationError('x must be 1')\n"
        "    raise NumericalError('no convergence')\n"
        "    raise ValidationError(f'bad file: {x}')\n")
    (tmp_path / "b.py").write_text(
        "def g(x):\n    raise NumericalError('x must be 1')\n"
        "def h(x):\n    raise ValidationError(f'{x} must be 1')\n"
        "    raise ValidationError(f'bad file: {x!r} here')\n")
    (tmp_path / "c.py").write_text(
        "raise ValueError('no convergence')\nraise ValidationError(f'no convergence')\n")
    found = _shared_error_messages(sorted(tmp_path.glob("*.py")))
    assert found == ["'bad file: ': a.py, b.py", "'no convergence': a.py, c.py",
                     "'x must be 1': a.py, b.py"]


def _scipy_imports(path: Path) -> list[str]:
    """Every import of scipy in a module, at module level or in a body."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {n}" for n in names
                  if n.split(".")[0] == "scipy"]
    return found


def test_no_scipy_import_in_fbt():
    # fbt needs numpy alone; scipy serves only the tests' oracles
    found = [u for path in sorted((SRC / "fbt").glob("*.py")) for u in _scipy_imports(path)]
    assert found == []


def test_scipy_import_check_sees_them(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy\nif True:\n    import scipy.sparse as sp\n"
                     "class A:\n    from scipy import linalg\n"
                     "def f():\n    import scipy.ndimage\n")
    assert sorted(_scipy_imports(probe)) == [
        "probe.py:3: scipy.sparse", "probe.py:5: scipy", "probe.py:7: scipy.ndimage"]


# runs the README commands through main in one interpreter, then prints the
# scipy modules it has loaded
_RUNNER = """\
import contextlib, io, json, shlex, sys
from fbt.cli import main
for command in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(shlex.split(command)[1:]) == 0, command
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_readme_commands_do_not_load_scipy(tmp_path):
    from test_cli import _readme_cli_commands, _write_readme_inputs

    _write_readme_inputs(tmp_path)
    commands = _readme_cli_commands()
    assert any(c.startswith("fbt conformal grid") for c in commands)
    res = subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(commands)],
                         cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == []


def _loads_scipy(code: str) -> bool:
    """Whether any scipy module is in sys.modules after running `code` in a
    fresh interpreter."""
    code += ("\nimport sys\n"
             "sys.stderr.write(repr(any(m.split('.')[0] == 'scipy' for m in sys.modules)))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stderr in ("True", "False"), res.stderr
    return res.stderr == "True"


def _cli(*argv: str) -> str:
    return f"from fbt.cli import main\nassert main({list(argv)!r}) == 0"


def test_loads_scipy_check_sees_it():
    assert _loads_scipy("import scipy.linalg")


def test_word_command_does_not_load_scipy():
    assert not _loads_scipy(_cli("word", "linv", "a1"))


def test_importing_the_modules_does_not_load_scipy():
    assert not _loads_scipy("import fbt.conformal, fbt.dbar, fbt.config3, fbt.braid, "
                            "fbt.words, fbt.bounds")


@pytest.mark.parametrize("argv", [
    ("conformal", "lambda", "--kind", "round", "--r", "1", "--R", "2"),
    ("conformal", "torus-bounds", "--alpha", "1", "--sigma", "0.1"),
    ("dbar", "kernel", "--alpha", "1", "--N", "60", "--re", "0.2", "--im", "0.3"),
    ("config3", "in-h", "--points=-1,0,0,0,1,0"),
    ("bounds", "thm1", "--g", "0", "--m", "1", "--lambda4", "0"),
], ids=lambda argv: " ".join(argv[:2]))
def test_closed_form_commands_do_not_load_scipy(argv):
    assert not _loads_scipy(_cli(*argv))


def test_building_a_grid_does_not_load_scipy():
    assert not _loads_scipy("import fbt.conformal as C\n"
                            "C.annulus_grid(1.0, 2.0, 0.1)\nC.cylinder_grid(1.0, 1.0, 0.1)")


@pytest.mark.parametrize("argv", [
    ("--kind", "rectangle", "--a", "1", "--b", "1", "--h", "0.25", "--family", "separating"),
    ("--kind", "rectangle", "--a", "1", "--b", "1", "--h", "0.25"),
    ("--kind", "round", "--r", "1", "--R", "2", "--h", "0.1"),
], ids=["rectangle-separating", "rectangle", "round"])
def test_grid_command_does_not_load_scipy(argv):
    # the operator, the coarse factor and the CG loop are numpy alone, and so
    # is the domain's connectivity check
    assert not _loads_scipy(_cli("conformal", "grid", *argv))
