"""The runtime imports the standard library only (``dependencies = []``)."""
import ast
from pathlib import Path
import sys

import hilb2

SOURCES = sorted(Path(hilb2.__file__).parent.glob("*.py"))


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_absolute_import_is_in_the_standard_library():
    assert len(SOURCES) > 10
    outside = {
        (path.name, name)
        for path in SOURCES for name in absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    }
    assert outside == set()

