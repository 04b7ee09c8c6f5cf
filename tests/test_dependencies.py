"""The package imports nothing past the standard library and numpy, its one
declared dependency; scipy or mpmath may be installed, but are not declared."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "minatt"


def test_package_imports_only_the_standard_library_and_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    tops, outside = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:  # relative imports stay inside the package
                continue
            for name in names:
                tops.add(name.split(".")[0])
                if name.split(".")[0] not in allowed:
                    outside.append(f"{path.name}: {name}")
    assert outside == []
    assert "numpy" in tops and len(tops) > 3  # the walk saw the real imports
