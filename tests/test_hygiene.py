"""Static hygiene checks on the package source (stdlib `ast`, no imports of picard7)."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "picard7"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(path: Path):
    """Names a module imports and never reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def asserts(path: Path):
    """Line numbers of `assert` statements, which `python -O` strips."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return sorted(n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert))


def imported_packages(path: Path):
    """Top-level names of the packages a module imports (absolute imports only)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def environment_reads(path: Path):
    """Line numbers of reads of the process environment (os.environ, getenv)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = []
    for node in ast.walk(tree):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name in ("environ", "getenv", "environb", "getenvb"):
            lines.append(node.lineno)
    return sorted(lines)


def test_modules_found():
    assert {p.name for p in MODULES} >= {"ring.py", "hermitian.py", "heisenberg.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_asserts(path):
    assert asserts(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_picard7(path):
    # the package has no runtime dependency
    allowed = set(sys.stdlib_module_names) | {"picard7"}
    assert sorted(imported_packages(path) - allowed) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_environment_reads(path):
    # the computation is fixed: no environment variable reaches it
    assert environment_reads(path) == []
