"""The package's runtime dependencies: numpy and the standard library."""

import ast
import sys
from pathlib import Path

import pegica

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "pegica"}


def test_package_imports_only_numpy_and_the_standard_library():
    files = sorted(Path(pegica.__file__).parent.glob("*.py"))
    assert files
    foreign = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert foreign == []
