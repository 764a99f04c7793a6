"""The runtime stays standard-library only: every absolute import in the
package names the package itself or a standard-library module."""

import ast
import sys
from pathlib import Path

import parsemem

PACKAGE = Path(parsemem.__file__).parent


def absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_itself_and_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 1
    foreign = [(path.name, name) for path in modules
               for name in absolute_imports(path)
               if name.split(".")[0] not in {"parsemem", *sys.stdlib_module_names}]
    assert foreign == []


def test_every_int_byte_conversion_names_its_byte_order():
    """``int.from_bytes`` and ``int.to_bytes`` default the byte order only
    from Python 3.11, and the package supports 3.10."""
    unnamed = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in {"from_bytes", "to_bytes"}
                    and len(node.args) < 2
                    and "byteorder" not in {kw.arg for kw in node.keywords}):
                unnamed.append((path.name, node.lineno))
    assert unnamed == []
