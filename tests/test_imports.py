import ast
import os
import subprocess
import sys
from pathlib import Path

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


def test_word_command_does_not_load_scipy():
    code = ("import sys\nfrom fbt.cli import main\n"
            "assert main(['word', 'linv', 'a1']) == 0\n"
            "sys.stderr.write(repr('scipy' in sys.modules))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stderr == "False"
