"""The runtime imports nothing outside the standard library."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import groupcode

SOURCES = sorted(Path(groupcode.__file__).parent.glob("*.py"))


def _absolute_imports(path: Path) -> list[str]:
    """Top-level module names of the absolute imports in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_runtime_is_stdlib_only():
    assert {path.name for path in SOURCES} >= {"__init__.py", "groups.py", "cli.py"}
    foreign = {
        (path.name, name)
        for path in SOURCES
        for name in _absolute_imports(path)
        if name not in sys.stdlib_module_names and name != "groupcode"
    }
    assert foreign == set()


def test_cli_import_loads_no_process_pool():
    # the sweep runs in one process, so no command pays for a pool's imports
    probe = (
        "import sys, groupcode.cli; "
        "print(sorted(m for m in sys.modules if m.startswith(('multiprocessing', 'concurrent'))))"
    )
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n"
