"""The package's public surface, its imports and the counter of its code lines."""

import ast
import types
from pathlib import Path

import weakdep

import code_lines


def test_star_import_binds_the_public_names_and_no_module():
    namespace = {}
    exec("from weakdep import *", namespace)
    bound = set(namespace) - {"__builtins__"}
    assert bound == set(weakdep.__all__)
    assert not [name for name in bound if isinstance(namespace[name], types.ModuleType)]
    assert {"run", "wald_ci", "ExperimentPlan", "generate_sequence"} <= bound
    # every public name left out is a submodule
    public = {name for name in dir(weakdep) if not name.startswith("_")}
    assert all(isinstance(getattr(weakdep, name), types.ModuleType)
               for name in public - bound)


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module of the package or of the tests imports is read
    somewhere in it.  The package's ``__init__`` is left out: its imports
    are the public names it re-exports."""
    unused = []
    modules = [path for path in Path(weakdep.__file__).parent.glob("*.py")
               if path.name != "__init__.py"]
    for path in sorted(modules) + sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


_FIXTURE = '''"""A module docstring
over two lines."""

import os  # a trailing comment


# a comment line
class Box:
    """A class docstring."""

    def size(self, x):
        """A function docstring."""
        total = sum(
            [x, os.sep],
        )
        text = """a string that is not a docstring
        spans two lines"""
        return total, text
'''


def test_code_line_counter_counts_a_fixture_exactly(tmp_path, capsys):
    """The counter skips docstrings, comments and blank lines, and counts
    every line of a multi-line expression or string: here the import, the
    class and def lines, the three lines of the sum, the two of the string
    and the return."""
    assert code_lines.count_code_lines(_FIXTURE) == 9
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "box.py").write_text(_FIXTURE)
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["9", "total"]
